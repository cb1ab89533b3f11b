package tcp

import (
	"runtime"
	"testing"

	"ashs/internal/aegis"
)

// streamMallocs builds a two-host world, moves total bytes through one
// connection in 8-KB writes from application memory, and returns the heap
// allocations the whole run made and the data segments it sent.
func streamMallocs(t *testing.T, mode Mode, total int) (mallocs, segs uint64) {
	t.Helper()
	const chunk = 8192
	w := newWorld()
	got := 0
	w.k2.Spawn("server", func(p *aegis.Process) {
		conn, err := Accept(w.stackFor(p, w.a2, 7, w.ip2), w.cfg(mode, 2), 80)
		if err != nil {
			t.Error(err)
			return
		}
		buf := p.AS.MustAlloc(chunk, "rx")
		for got < total {
			n, err := conn.Read(buf.Base, chunk)
			if err != nil {
				t.Error(err)
				return
			}
			got += n
		}
		_ = conn.Close()
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		conn, err := Connect(w.stackFor(p, w.a1, 7, w.ip1), w.cfg(mode, 1), 1234, w.ip2, 80)
		if err != nil {
			t.Error(err)
			return
		}
		buf := p.AS.MustAlloc(chunk, "tx")
		for sent := 0; sent < total; sent += chunk {
			if err := conn.Write(buf.Base, min(chunk, total-sent)); err != nil {
				t.Error(err)
				return
			}
		}
		segs = conn.SegsOut
		_ = conn.Close()
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.eng.Run()
	runtime.ReadMemStats(&after)
	if got != total {
		t.Fatalf("%d of %d bytes arrived", got, total)
	}
	return after.Mallocs - before.Mallocs, segs
}

// TestNoAllocationPerSegment: what a stream allocates does not grow with its
// length. The same world moves 1 MB and then 4 MB; the extra thousand
// segments (and their acknowledgments, timers, leases and frames) may cost
// fewer than one heap allocation per eight of them. Before the stack owned
// its transmit frame and the connection its retransmit store, each segment
// cost five.
func TestNoAllocationPerSegment(t *testing.T) {
	for _, mode := range []Mode{ModeUser, ModeASH} {
		m1, s1 := streamMallocs(t, mode, 1<<20)
		m4, s4 := streamMallocs(t, mode, 4<<20)
		extra, segs := int64(m4)-int64(m1), int64(s4)-int64(s1)
		t.Logf("mode %d: %d mallocs / %d segments at 1 MB, %d / %d at 4 MB", mode, m1, s1, m4, s4)
		if segs < 900 || extra*8 >= segs {
			t.Errorf("mode %d: %d more segments cost %d more allocations, want under one per eight",
				mode, segs, extra)
		}
	}
}
