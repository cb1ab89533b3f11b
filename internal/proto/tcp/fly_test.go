package tcp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ashs/internal/proto/ip"
	"ashs/internal/vcode"
)

// flySeg hand-crafts a peer segment the way the full library would emit
// it (real marshal, real end-to-end checksum).
func flySeg(src, dst ip.Addr, sport, dport uint16, seq, ack uint32, flags Flags, payload []byte) []byte {
	h := Header{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: 8192}
	b := h.Marshal(nil)
	b = append(b, payload...)
	acc := ip.PseudoCksum(src, dst, ip.ProtoTCP, len(b))
	acc += h.headerAccum()
	acc = vcode.CksumData(acc, payload)
	binary.BigEndian.PutUint16(b[16:18], ^vcode.Fold16(acc))
	return b
}

// flyVerify checks a FlyConn-emitted segment's checksum the way the full
// library's receive path does.
func flyVerify(t *testing.T, src, dst ip.Addr, seg []byte) Header {
	t.Helper()
	h, _, err := Parse(seg)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	acc := ip.PseudoCksum(src, dst, ip.ProtoTCP, len(seg))
	acc = vcode.CksumData(acc, seg)
	if vcode.Fold16(acc) != 0xffff {
		t.Fatalf("segment %v fails end-to-end checksum", h.Flags)
	}
	return h
}

func TestFlyConnHandshakeEchoClose(t *testing.T) {
	cli, srv := ip.V4(10, 0, 0, 2), ip.V4(10, 0, 0, 1)
	c := NewFlyConn(cli, srv, 1234, 80, 100)

	syn := c.Syn(nil)
	h := flyVerify(t, cli, srv, syn)
	if h.Flags != SYN || h.Seq != 100 {
		t.Fatalf("SYN = %v seq=%d, want S seq=100", h.Flags, h.Seq)
	}

	reply, payload, err := c.OnSegment(nil, flySeg(srv, cli, 80, 1234, 5000, 101, SYN|ACK, nil))
	if err != nil || payload != nil {
		t.Fatalf("SYN|ACK: err=%v payload=%v", err, payload)
	}
	h = flyVerify(t, cli, srv, reply)
	if h.Flags != ACK || h.Seq != 101 || h.Ack != 5001 {
		t.Fatalf("handshake ACK = %v seq=%d ack=%d", h.Flags, h.Seq, h.Ack)
	}
	if !c.Established() {
		t.Fatal("not established after SYN|ACK")
	}

	data := c.Data(nil, []byte("ping"))
	h = flyVerify(t, cli, srv, data)
	if h.Flags != ACK|PSH || h.Seq != 101 || !bytes.Equal(data[HeaderLen:], []byte("ping")) {
		t.Fatalf("data segment = %v seq=%d", h.Flags, h.Seq)
	}
	if c.AllAcked() {
		t.Fatal("AllAcked before the echo acknowledged the data")
	}

	// Server echo piggybacks the ACK of our 4 bytes.
	reply, payload, err = c.OnSegment(nil, flySeg(srv, cli, 80, 1234, 5001, 105, ACK|PSH, []byte("pong")))
	if err != nil || !bytes.Equal(payload, []byte("pong")) {
		t.Fatalf("echo: err=%v payload=%q", err, payload)
	}
	if !c.AllAcked() {
		t.Fatal("piggybacked ACK not applied")
	}
	h = flyVerify(t, cli, srv, reply)
	if h.Flags != ACK || h.Ack != 5005 {
		t.Fatalf("echo ACK = %v ack=%d, want bare ACK 5005", h.Flags, h.Ack)
	}

	// Duplicate (retransmitted) echo draws a dup-ACK, no payload.
	reply, payload, err = c.OnSegment(nil, flySeg(srv, cli, 80, 1234, 5001, 105, ACK|PSH, []byte("pong")))
	if err != nil || payload != nil {
		t.Fatalf("dup echo: err=%v payload=%q", err, payload)
	}
	if h := flyVerify(t, cli, srv, reply); h.Ack != 5005 {
		t.Fatalf("dup-ACK ack=%d, want 5005", h.Ack)
	}

	fin := c.Fin(nil)
	if h := flyVerify(t, cli, srv, fin); h.Flags != FIN|ACK || h.Seq != 105 {
		t.Fatalf("FIN = %v seq=%d", h.Flags, h.Seq)
	}
	// Peer ACKs our FIN and sends its own.
	if _, _, err := c.OnSegment(nil, flySeg(srv, cli, 80, 1234, 5005, 106, ACK, nil)); err != nil {
		t.Fatalf("FIN ack: %v", err)
	}
	reply, _, err = c.OnSegment(nil, flySeg(srv, cli, 80, 1234, 5005, 106, FIN|ACK, nil))
	if err != nil {
		t.Fatalf("peer FIN: %v", err)
	}
	if h := flyVerify(t, cli, srv, reply); h.Flags != ACK || h.Ack != 5006 {
		t.Fatalf("FIN ACK = %v ack=%d", h.Flags, h.Ack)
	}
	if !c.Done() {
		t.Fatal("not Done after full shutdown")
	}
}

func TestFlyConnDropsDamageAndStrangers(t *testing.T) {
	cli, srv := ip.V4(10, 0, 0, 2), ip.V4(10, 0, 0, 1)
	c := NewFlyConn(cli, srv, 1234, 80, 100)
	c.Syn(nil)

	// Wrong ports: silently ignored.
	if reply, _, err := c.OnSegment(nil, flySeg(srv, cli, 81, 1234, 5000, 101, SYN|ACK, nil)); reply != nil || err != nil {
		t.Fatalf("stranger segment: reply=%v err=%v", reply, err)
	}
	// Damaged checksum: silently dropped.
	bad := flySeg(srv, cli, 80, 1234, 5000, 101, SYN|ACK, nil)
	bad[HeaderLen-1] ^= 0xff
	if reply, _, err := c.OnSegment(nil, bad); reply != nil || err != nil {
		t.Fatalf("damaged segment: reply=%v err=%v", reply, err)
	}
	if c.Established() {
		t.Fatal("established off a dropped segment")
	}

	if _, _, err := c.OnSegment(nil, flySeg(srv, cli, 80, 1234, 5000, 101, SYN|ACK, nil)); err != nil {
		t.Fatal(err)
	}
	// Out-of-order data: dup-ACK, no delivery.
	reply, payload, err := c.OnSegment(nil, flySeg(srv, cli, 80, 1234, 6000, 101, ACK|PSH, []byte("late")))
	if err != nil || payload != nil {
		t.Fatalf("ooo data: err=%v payload=%q", err, payload)
	}
	if h := flyVerify(t, cli, srv, reply); h.Ack != 5001 {
		t.Fatalf("ooo dup-ACK ack=%d, want 5001", h.Ack)
	}

	// RST is fatal.
	if _, _, err := c.OnSegment(nil, flySeg(srv, cli, 80, 1234, 5001, 101, RST, nil)); err == nil {
		t.Fatal("RST did not error")
	}
	if c.state != Closed {
		t.Fatal("RST did not close")
	}
}
