package tcp

import (
	"strings"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/netdev"
	"ashs/internal/sim"
)

// TestMaxRetransmitTearsDownConnection is the regression test for the
// retransmission-exhaustion path: when a segment is retransmitted
// MaxRetransmit times without an acknowledgment, the connection must be
// torn down — the error surfaces to blocked callers, the state moves to
// Closed, the timer queue drains, and later operations fail fast.
func TestMaxRetransmitTearsDownConnection(t *testing.T) {
	w := newWorld()
	// Black-hole every data segment after the handshake: small control
	// segments (SYN, ACK, FIN; ~60 bytes with headers) still pass, so the
	// connection establishes and then the client's data drowns.
	dropped := 0
	w.sw.Inject = func(pkt *netdev.PacketBuf) bool {
		if pkt.Len() > 200 {
			dropped++
			return false
		}
		return true
	}

	var cli *Conn
	var writeErr, retryWriteErr, retryReadErr error
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 7, w.ip2)
		if _, err := Accept(st, w.cfg(ModeUser, 2), 80); err != nil {
			t.Errorf("accept: %v", err)
		}
		// The server never reads; the client's data never arrives anyway.
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 7, w.ip1)
		cfg := w.cfg(ModeUser, 1)
		cfg.MaxRetransmit = 3
		conn, err := Connect(st, cfg, 1234, w.ip2, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		cli = conn
		writeErr = conn.WriteBytes(make([]byte, 1000))
		// Operations after teardown must fail fast, not hang.
		retryWriteErr = conn.Write(0, 0)
		_, retryReadErr = conn.Read(0, 1)
	})
	w.eng.Run()

	if dropped == 0 {
		t.Fatal("injector never dropped a data segment")
	}
	if cli == nil {
		t.Fatal("connection never established")
	}
	if writeErr == nil {
		t.Fatal("write on a black-holed connection returned nil")
	}
	if cli.State() != Closed {
		t.Fatalf("state = %v after retransmission exhaustion, want CLOSED", cli.State())
	}
	if len(cli.rtxq) != 0 {
		t.Fatalf("%d segments still queued for retransmission after teardown", len(cli.rtxq))
	}
	if cli.Retransmits < 3 {
		t.Fatalf("Retransmits = %d, want >= MaxRetransmit (3)", cli.Retransmits)
	}
	if retryWriteErr == nil {
		t.Fatal("Write after teardown succeeded")
	}
	if retryReadErr == nil {
		t.Fatal("Read after teardown succeeded")
	}
}

// TestRetransmitBackoffSchedule pins the retransmission timer's schedule:
// a SYN into a circuit nobody bound on the far host goes out again after
// 200, 400, 800 and 1600 ms, then every 1600 ms (the cap), each gap
// longer than the timeout by at most the send path's own cycles; the
// timeout after the MaxRetransmit-th retransmission tears the connection
// down instead of sending.
func TestRetransmitBackoffSchedule(t *testing.T) {
	w := newWorld()
	var sent []sim.Time
	w.sw.Inject = func(*netdev.PacketBuf) bool {
		sent = append(sent, w.eng.Now())
		return true
	}
	var err error
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 7, w.ip1)
		_, err = Connect(st, w.cfg(ModeUser, 1), 1234, w.ip2, 80)
	})
	w.eng.Run()

	if err == nil || !strings.Contains(err.Error(), "too many retransmissions") {
		t.Fatalf("connect into the void: err = %v, want too many retransmissions", err)
	}
	wantMs := []float64{200, 400, 800, 1600, 1600, 1600, 1600, 1600}
	if len(sent) != len(wantMs)+1 || len(wantMs) != DefaultConfig().MaxRetransmit {
		t.Fatalf("%d SYNs on the wire, want 1 + MaxRetransmit (%d)", len(sent), len(wantMs))
	}
	prof := w.k1.Prof
	slack := outputCycles + cksumFixedCycles
	for i, ms := range wantMs {
		rto := prof.Cycles(ms * 1000)
		if gap := sent[i+1] - sent[i]; gap < rto || gap > rto+slack {
			t.Errorf("retransmission %d after %.3f ms, want %.0f ms (+ at most %d cycles)",
				i+1, prof.Us(gap)/1000, ms, slack)
		}
	}
	// The last SYN's timeout is the teardown: one capped RTO after it was
	// sent, which is before it reached the switch plus that RTO.
	capRTO := prof.Cycles(1_600_000)
	last := sent[len(sent)-1]
	if end := w.eng.Now(); end > last+capRTO || end < last+capRTO-prof.Cycles(1000) {
		t.Errorf("torn down %.3f ms after the last SYN, want about 1600 ms", prof.Us(end-last)/1000)
	}
}
