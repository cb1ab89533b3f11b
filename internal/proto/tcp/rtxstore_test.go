package tcp

import (
	"bytes"
	"fmt"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/netdev"
	"ashs/internal/proto/ip"
)

// rigged is an established sender with no peer behind it: the test plays the
// peer by calling processAck (the library's ack path) or moving sndUna (the
// fast path's), and reads what the connection put on the wire.
type rigged struct {
	t    *testing.T
	c    *Conn
	p    *aegis.Process
	buf  aegis.Segment // the application's send buffer
	wire [][]byte      // TCP payload of every frame sent, in order
}

// rig runs body in the owner process of a connection forced into ESTABLISHED
// with the default 8-KB window and 3072-byte MSS.
func rig(t *testing.T, body func(r *rigged)) {
	t.Helper()
	w := newWorld()
	r := &rigged{t: t}
	w.sw.Inject = func(pkt *netdev.PacketBuf) bool {
		r.wire = append(r.wire, append([]byte(nil), pkt.Bytes()[ip.HeaderLen+HeaderLen:]...))
		return true
	}
	w.k1.Spawn("sender", func(p *aegis.Process) {
		c, err := newConn(w.stackFor(p, w.a1, 7, w.ip1), w.cfg(ModeUser, 1), 1234)
		if err != nil {
			t.Error(err)
			return
		}
		c.remoteIP, c.remotePort, c.state = w.ip2, 80, Established
		c.iss, c.sndUna, c.sndNxt, c.rcvNxt, c.sndWnd = 1000, 1001, 1001, 5001, c.Cfg.Window
		r.c, r.p, r.buf = c, p, p.AS.MustAlloc(c.Cfg.MSS, "app")
		body(r)
	})
	w.eng.Run()
}

// fill is n bytes only salt produces.
func fill(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13+i>>7) ^ salt
	}
	return b
}

// send writes fill(n, salt) into the application buffer and sends it as one
// queued data segment, the way Write does.
func (r *rigged) send(n int, salt byte) {
	copy(r.p.AS.MustBytes(r.buf.Base, n), fill(n, salt))
	r.c.sendSegment(ACK|PSH, r.c.sndNxt, &r.buf.Base, n, true)
	r.c.sndNxt += uint32(n)
}

// queued checks the retransmission queue holds exactly these segments, each
// with the bytes it was sent with.
func (r *rigged) queued(what string, salts ...byte) {
	r.t.Helper()
	if len(r.c.rtxq) != len(salts) {
		r.t.Fatalf("%s: %d segments queued, want %d", what, len(r.c.rtxq), len(salts))
	}
	for i, s := range salts {
		if d := r.c.rtxq[i].data; !bytes.Equal(d, fill(len(d), s)) {
			r.t.Errorf("%s: queued segment %d no longer holds the bytes it was sent with", what, i)
		}
	}
	r.whole(what)
}

// whole checks the store's books: every slab is either with one queued
// segment or idle, never both and never twice.
func (r *rigged) whole(what string) {
	r.t.Helper()
	seen := map[*byte]string{}
	note := func(slab []byte, where string) {
		if cap(slab) == 0 {
			return
		}
		k := &slab[:1][0]
		if was, dup := seen[k]; dup {
			r.t.Errorf("%s: one slab is both %s and %s", what, was, where)
		}
		seen[k] = where
	}
	for i := range r.c.rtxq {
		note(r.c.rtxq[i].data, fmt.Sprintf("queued segment %d", i))
	}
	for i, s := range r.c.rtxFree {
		note(s, fmt.Sprintf("idle slab %d", i))
	}
}

// lastOnWire lets the frames in flight arrive and checks the latest one.
func (r *rigged) lastOnWire(what string, n int, salt byte) {
	r.t.Helper()
	r.p.Compute(200_000)
	if got := r.wire[len(r.wire)-1]; !bytes.Equal(got, fill(n, salt)) {
		r.t.Errorf("%s: the wire carries %d bytes that are not the segment as first sent", what, len(got))
	}
}

// TestRtxStoreKeepsWhatWasSent: a queued segment is a copy. The application
// reuses its buffer for the next write; an acknowledgment that lands in the
// middle of a segment leaves it queued whole; a retransmission resends the
// bytes first sent; an acknowledged segment's slab serves the next segment
// without disturbing its neighbours; acknowledgments the fast path took are
// collected by the timer loop.
func TestRtxStoreKeepsWhatWasSent(t *testing.T) {
	rig(t, func(r *rigged) {
		c := r.c
		r.send(3072, 0xa1)
		r.send(3072, 0xb2) // overwrites the application buffer
		r.queued("two in flight", 0xa1, 0xb2)
		r.lastOnWire("first transmission", 3072, 0xb2)

		c.processAck(c.rcvNxt, 1001+1000, c.Cfg.Window) // lands mid-segment
		r.queued("after a mid-segment ack", 0xa1, 0xb2)
		c.retransmit(&c.rtxq[0])
		r.lastOnWire("retransmission", 3072, 0xa1)

		c.processAck(c.rcvNxt, 1001+3072, c.Cfg.Window)
		r.queued("first acknowledged", 0xb2)
		if len(c.rtxFree) != 1 {
			t.Fatalf("%d idle slabs after one acknowledged segment, want 1", len(c.rtxFree))
		}
		idle := &c.rtxFree[0][:1][0]
		r.send(2048, 0xc3)
		r.queued("slab reused", 0xb2, 0xc3)
		if &c.rtxq[1].data[0] != idle || len(c.rtxFree) != 0 {
			t.Error("the acknowledged segment's slab did not serve the next segment")
		}

		c.sndUna = c.sndNxt // what the fast-path handler does with an ACK
		c.checkTimers()
		r.queued("drained by fast-path acks")
		if len(c.rtxFree) != 2 {
			t.Errorf("%d idle slabs once everything is acknowledged, want the 2 ever minted", len(c.rtxFree))
		}
	})
}

// TestRtxStoreWindowProbeWhileFull: with a whole window unacknowledged the
// persist probe still goes out — one byte that is not queued and takes no
// slab.
func TestRtxStoreWindowProbeWhileFull(t *testing.T) {
	rig(t, func(r *rigged) {
		c := r.c
		r.send(3072, 1)
		r.send(3072, 2)
		r.send(2048, 3)
		if int(c.sndNxt-c.sndUna) != c.Cfg.Window {
			t.Fatalf("%d bytes in flight, want the window", c.sndNxt-c.sndUna)
		}
		r.lastOnWire("window filled", 2048, 3)
		frames := len(r.wire)
		c.sendWindowProbe()
		r.p.Compute(200_000)
		r.queued("probe sent", 1, 2, 3)
		if len(r.wire) != frames+1 || len(r.wire[frames]) != 1 || len(c.rtxFree) != 0 {
			t.Errorf("probe: %d new frames, idle slabs %d; want one 1-byte segment and no slab touched",
				len(r.wire)-frames, len(c.rtxFree))
		}
	})
}

// TestRtxStoreTeardownReturnsEverything: a connection torn down with
// segments outstanding leaves the store whole.
func TestRtxStoreTeardownReturnsEverything(t *testing.T) {
	rig(t, func(r *rigged) {
		r.send(3072, 1)
		r.send(100, 2)
		r.c.sendSegment(FIN|ACK, r.c.sndNxt, nil, 0, true) // queued, holds no slab
		r.c.teardown(fmt.Errorf("test"))
		r.queued("after teardown")
		if len(r.c.rtxFree) != 2 {
			t.Errorf("%d idle slabs after teardown, want the 2 that were out", len(r.c.rtxFree))
		}
	})
}

// TestRtxStoreRecyclesAcrossAStream: a megabyte is some 340 segments; the
// store mints a handful of slabs at the start and goes round them. After
// close every one of them is idle again.
func TestRtxStoreRecyclesAcrossAStream(t *testing.T) {
	for _, mode := range []Mode{ModeUser, ModeASH} {
		cli, _ := transferTest(t, mode, 1<<20, 11, nil)
		if cli == nil {
			t.Fatal("no client connection")
		}
		r := &rigged{t: t, c: cli}
		for i := range cli.rtxq {
			if len(cli.rtxq[i].data) != 0 {
				t.Errorf("mode %d: a data segment is still queued after close", mode)
			}
		}
		r.whole("after close")
		// A window is three segments; one the fast path acknowledged waits
		// for the timer loop, so a few more than that could be out.
		if n := len(cli.rtxFree); n < 3 || n > 8 {
			t.Errorf("mode %d: %d slabs minted for %d segments, want a handful", mode, n, cli.SegsOut)
		}
	}
}
