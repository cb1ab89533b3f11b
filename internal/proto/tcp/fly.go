package tcp

import (
	"encoding/binary"
	"fmt"

	"ashs/internal/proto/ip"
	"ashs/internal/vcode"
)

// FlyConn is the kernel-free client half of a TCP connection: a pure state
// machine over raw segment bytes for flyweight endpoints. It owns no
// aegis kernel, address space, or process — the caller moves the bytes
// (and the virtual time). The segments it emits are wire-compatible with
// the full Conn on the measured side: real header marshaling, real
// end-to-end Internet checksums, real sequence arithmetic, so the server
// half cannot tell a flyweight peer from a full client host.
//
// The machine is deliberately minimal, shaped for the request/response
// workloads of the megascale experiment: in-order delivery only (anything
// else is dropped for the peer to retransmit), immediate ACKs (no delayed
// ACK — the server's synchronous Write must unblock on our ACK), and no
// internal timers. Retransmission is the caller's job: resend the exact
// bytes a send method returned if progress stalls (the server treats a
// duplicate as out-of-order data and answers with a dup-ACK).
//
// Every method that emits a segment appends it to a buffer the caller
// passes and returns the extended buffer, so a fleet of connections
// marshals into one scratch buffer and a conversation of any length
// allocates nothing. The struct's size is part of a flyweight endpoint's
// footprint, which is why the buffer is the caller's.
type FlyConn struct {
	LocalIP, RemoteIP     ip.Addr
	LocalPort, RemotePort uint16

	state          State
	iss            uint32
	sndNxt, sndUna uint32
	rcvNxt         uint32
	finSent        bool
	peerClosed     bool
}

// NewFlyConn builds a closed flyweight connection with initial send
// sequence iss. Call Syn to start the handshake. Every segment carries the
// end-to-end checksum and advertises the library's fixed window: the
// flyweight side consumes payload immediately, so it never shrinks.
func NewFlyConn(local, remote ip.Addr, lport, rport uint16, iss uint32) *FlyConn {
	return &FlyConn{
		LocalIP: local, RemoteIP: remote,
		LocalPort: lport, RemotePort: rport,
		iss: iss,
	}
}

// Established reports whether the three-way handshake has completed.
func (c *FlyConn) Established() bool { return c.state == Established }

// AllAcked reports whether everything sent has been acknowledged.
func (c *FlyConn) AllAcked() bool { return c.sndUna == c.sndNxt }

// Done reports a fully shut-down connection: our FIN sent and
// acknowledged, the peer's FIN accepted.
func (c *FlyConn) Done() bool { return c.finSent && c.peerClosed && c.AllAcked() }

// Syn opens the connection: it appends the SYN segment to transmit to b
// and moves to SYN-SENT.
func (c *FlyConn) Syn(b []byte) []byte {
	if c.state != Closed || c.sndNxt != 0 {
		panic("tcp: FlyConn.Syn on a non-fresh connection")
	}
	c.state = SynSent
	seg := c.seg(b, SYN, c.iss, nil)
	c.sndNxt = c.iss + 1
	c.sndUna = c.iss
	return seg
}

// Data appends to b a PSH|ACK segment carrying payload and advances the
// send sequence. The caller retains a copy of the segment for
// retransmission until AllAcked reports true.
func (c *FlyConn) Data(b, payload []byte) []byte {
	if c.state != Established {
		panic("tcp: FlyConn.Data before establishment")
	}
	seg := c.seg(b, ACK|PSH, c.sndNxt, payload)
	c.sndNxt += uint32(len(payload))
	return seg
}

// Fin appends our FIN|ACK segment to b and advances the send sequence
// over it.
func (c *FlyConn) Fin(b []byte) []byte {
	if c.finSent {
		panic("tcp: FlyConn.Fin twice")
	}
	seg := c.seg(b, FIN|ACK, c.sndNxt, nil)
	c.sndNxt++
	c.finSent = true
	return seg
}

// OnSegment consumes one raw TCP segment addressed to this connection and
// returns the segment to transmit in response, appended to b (nil when
// none is due), plus any in-order payload delivered to the application, a
// slice of seg. Segments for other ports, bad checksums, and out-of-order
// data are handled the way the full library handles them (drop; dup-ACK
// for data), never fatally — the only error is a peer RST.
func (c *FlyConn) OnSegment(b, seg []byte) (reply []byte, payload []byte, err error) {
	h, dataOff, perr := Parse(seg)
	if perr != nil || h.DstPort != c.LocalPort || h.SrcPort != c.RemotePort {
		return nil, nil, nil
	}
	acc := ip.PseudoCksum(c.RemoteIP, c.LocalIP, ip.ProtoTCP, len(seg))
	if vcode.Fold16(vcode.CksumData(acc, seg)) != 0xffff {
		return nil, nil, nil // damaged in flight; peer retransmits
	}
	plen := len(seg) - dataOff
	if h.Flags&RST != 0 {
		c.state = Closed
		return nil, nil, fmt.Errorf("tcp: connection reset by peer")
	}

	switch c.state {
	case SynSent:
		if h.Flags&(SYN|ACK) == SYN|ACK && h.Ack == c.iss+1 {
			c.rcvNxt = h.Seq + 1
			c.sndUna = h.Ack
			c.state = Established
			return c.seg(b, ACK, c.sndNxt, nil), nil, nil
		}
		return nil, nil, nil
	case Closed:
		return nil, nil, nil
	}

	if h.Flags&ACK != 0 && seqLT(c.sndUna, h.Ack) && seqLE(h.Ack, c.sndNxt) {
		c.sndUna = h.Ack
	}
	ackDue := false
	if plen > 0 {
		if h.Seq == c.rcvNxt {
			payload = seg[dataOff:]
			c.rcvNxt += uint32(plen)
		}
		// In-order data is acknowledged immediately; anything else draws
		// the same bare ACK as a dup-ACK carrying rcvNxt.
		ackDue = true
	}
	if h.Flags&FIN != 0 && seqLE(h.Seq+uint32(plen), c.rcvNxt) {
		if !c.peerClosed {
			c.rcvNxt = h.Seq + uint32(plen) + 1
			c.peerClosed = true
		}
		ackDue = true
	}
	if ackDue {
		reply = c.seg(b, ACK, c.sndNxt, nil)
	}
	return reply, payload, nil
}

// seg appends to b one raw segment with the current acknowledgment state
// and the end-to-end checksum patched in.
func (c *FlyConn) seg(b []byte, flags Flags, seq uint32, payload []byte) []byte {
	h := Header{
		SrcPort: c.LocalPort, DstPort: c.RemotePort,
		Seq: seq, Flags: flags, Window: window,
	}
	if flags&ACK != 0 {
		h.Ack = c.rcvNxt
	}
	start := len(b)
	b = append(h.Marshal(b), payload...)
	acc := ip.PseudoCksum(c.LocalIP, c.RemoteIP, ip.ProtoTCP, len(b)-start)
	acc += h.headerAccum()
	acc = vcode.CksumData(acc, payload)
	binary.BigEndian.PutUint16(b[start+16:start+18], ^vcode.Fold16(acc))
	return b
}
