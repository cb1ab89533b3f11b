package tcp

import (
	"fmt"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

func tupleFor(i int) FourTuple {
	return FourTuple{
		LocalIP:    ip.V4(10, 0, 0, 1),
		LocalPort:  80,
		RemoteIP:   ip.V4(10, 0, byte(i>>8), byte(i)),
		RemotePort: uint16(1000 + i),
	}
}

func TestConnTableBasics(t *testing.T) {
	tbl := NewConnTable(33) // rounds up to 64
	if got := len(tbl.buckets); got != 64 {
		t.Fatalf("bucket count = %d, want 64", got)
	}
	k := tupleFor(0)
	c := &Conn{localPort: k.LocalPort, remoteIP: k.RemoteIP, remotePort: k.RemotePort, state: Established}
	if err := tbl.Bind(k, c); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := tbl.Bind(k, &Conn{}); err == nil {
		t.Fatalf("duplicate Bind succeeded")
	}
	got, ok := tbl.Lookup(k)
	if !ok || got != c {
		t.Fatalf("Lookup = %v, %v; want original conn", got, ok)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	if !tbl.Remove(k) {
		t.Fatalf("Remove reported absent")
	}
	if tbl.Remove(k) {
		t.Fatalf("second Remove reported present")
	}
	if _, ok := tbl.Lookup(k); ok {
		t.Fatalf("Lookup found removed conn")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tbl.Len())
	}
}

// TestConnTableHashSpread binds several hundred distinct tuples and checks
// the FNV hash spreads them across buckets rather than piling into a few:
// the sub-linear demux claim of the scale experiment depends on bucket
// chains staying O(1).
func TestConnTableHashSpread(t *testing.T) {
	tbl := NewConnTable(64)
	const n = 512
	for i := 0; i < n; i++ {
		if err := tbl.Bind(tupleFor(i), &Conn{state: Established}); err != nil {
			t.Fatalf("Bind %d: %v", i, err)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	max := 0
	for i := range tbl.buckets {
		if l := len(tbl.buckets[i]); l > max {
			max = l
		}
	}
	// Perfect spread is 8 per bucket; allow generous slack but reject a
	// degenerate hash that funnels everything into a handful of chains.
	if max > 4*n/len(tbl.buckets) {
		t.Fatalf("worst bucket holds %d of %d conns (degenerate hash?)", max, n)
	}
}

// TestConnTableChurn opens and closes hundreds of connections in rounds,
// shard by shard, looking every tuple up between the steps — segment
// delivery interleaved with connection set-up and teardown, as one world's
// single thread of control interleaves them. The table's contract is the
// caller's order of operations: a connection is published fully constructed
// (identity fields set, state Established) and removed before teardown flips
// its state, so a successful lookup never returns a torn or closed Conn and
// a removed tuple is never found.
func TestConnTableChurn(t *testing.T) {
	tbl := NewConnTable(0)
	const (
		shards        = 4
		connsPerShard = 64
		rounds        = 25
	)
	live := make([]*Conn, shards*connsPerShard) // nil: not bound
	deliver := func(when string) {
		t.Helper()
		for i, want := range live {
			k := tupleFor(i)
			c, ok := tbl.Lookup(k)
			switch {
			case ok != (want != nil) || c != want:
				t.Fatalf("%s: lookup %s = %p, %v, want %p", when, k, c, ok, want)
			case !ok:
			case c.state != Established:
				t.Fatalf("%s: lookup %s observed state %v (torn or closed conn published)", when, k, c.state)
			case c.remotePort != k.RemotePort || c.remoteIP != k.RemoteIP:
				t.Fatalf("%s: lookup %s observed mismatched identity %s:%d", when, k, c.remoteIP, c.remotePort)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		// Shards open in turn, and each closes while the next is open.
		for sh := 0; sh <= shards; sh++ {
			if sh < shards {
				for i := sh * connsPerShard; i < (sh+1)*connsPerShard; i++ {
					k := tupleFor(i)
					c := &Conn{
						localPort:  k.LocalPort,
						remoteIP:   k.RemoteIP,
						remotePort: k.RemotePort,
						state:      Established,
					}
					if err := tbl.Bind(k, c); err != nil {
						t.Fatalf("round %d Bind %s: %v", round, k, err)
					}
					live[i] = c
				}
				deliver(fmt.Sprintf("round %d, shard %d bound", round, sh))
			}
			if sh > 0 {
				for i := (sh - 1) * connsPerShard; i < sh*connsPerShard; i++ {
					k := tupleFor(i)
					if !tbl.Remove(k) {
						t.Fatalf("round %d Remove %s: absent", round, k)
					}
					// Teardown happens strictly after removal.
					live[i].state = Closed
					live[i] = nil
				}
				deliver(fmt.Sprintf("round %d, shard %d removed", round, sh-1))
			}
		}
	}
	if tbl.Len() != 0 {
		t.Fatalf("table not empty after churn: %d", tbl.Len())
	}
}

// --------------------------------------------------------------------
// Fan-in accept over Ethernet: wildcard listener + per-connection filters
// --------------------------------------------------------------------

// ethWorld is a two-host Ethernet testbed (no ARP; static resolution).
type ethWorld struct {
	eng        *sim.Engine
	k1, k2     *aegis.Kernel
	e1, e2     *aegis.EthernetIf
	sys1, sys2 *core.System
	ip1, ip2   ip.Addr
}

func newEthWorld() *ethWorld {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1 := aegis.NewKernel("h1", eng, prof)
	k2 := aegis.NewKernel("h2", eng, prof)
	w := &ethWorld{eng: eng, k1: k1, k2: k2,
		e1: aegis.NewEthernet(k1, sw), e2: aegis.NewEthernet(k2, sw)}
	w.sys1, w.sys2 = core.NewSystem(k1), core.NewSystem(k2)
	w.ip1 = ip.HostAddr(w.e1.Addr())
	w.ip2 = ip.HostAddr(w.e2.Addr())
	return w
}

func ipU32(a ip.Addr) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// listenFilter matches every TCP segment addressed to (local, port): the
// wildcard listen endpoint.
func listenFilter(local ip.Addr, port uint16) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+16, ipU32(local)).
		Eq8(ether.HeaderLen+9, ip.ProtoTCP).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
}

// connFilter matches exactly one connection's four-tuple. It extends the
// listen filter with the remote address and port, so the DPF trie's
// deepest-terminal rule routes established traffic here and only unclaimed
// SYNs to the listener.
func connFilter(local ip.Addr, port uint16, remote ip.Addr, rport uint16) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+12, ipU32(remote)).
		Eq32(ether.HeaderLen+16, ipU32(local)).
		Eq8(ether.HeaderLen+9, ip.ProtoTCP).
		Eq16(ether.HeaderLen+ip.HeaderLen+0, rport).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
}

// ethStack wraps a bound filter endpoint as an IP stack with an Ethernet
// link header.
func (w *ethWorld) ethStack(p *aegis.Process, iface *aegis.EthernetIf, local ip.Addr, f *dpf.Filter) *ip.Stack {
	ep, err := link.BindEthernet(iface, p, f)
	if err != nil {
		panic(err)
	}
	res := ip.StaticResolver{
		w.ip1: {Port: w.e1.Addr()},
		w.ip2: {Port: w.e2.Addr()},
	}
	st := ip.NewStack(ep, local, res)
	st.LinkHdrLen = ether.HeaderLen
	myMAC := ether.PortMAC(iface.Addr())
	st.PrependLink = func(dst link.Addr, b []byte) []byte {
		h := ether.Header{Dst: ether.PortMAC(dst.Port), Src: myMAC, Type: ether.TypeIPv4}
		return h.Marshal(b)
	}
	return st
}

func (w *ethWorld) ethCfg(host int) Config {
	c := DefaultConfig()
	c.Mode = ModeASH
	c.Checksum = false
	c.MSS = 1460
	if host == 1 {
		c.Sys = w.sys1
	} else {
		c.Sys = w.sys2
	}
	return c
}

// TestAcceptHandoffChurn drives the full fan-in accept path end to end:
// a wildcard listener consumes SYNs, installs a per-connection filter
// before answering, completes the handshake with AcceptHandoff, echoes a
// payload, and tears down — dozens of times in sequence, with ConnTable
// lookups interleaved with live segment delivery. The per-connection
// filter must win demux over the wildcard (deepest-terminal rule) or the
// handshake ACK lands on the listener and the accept deadlocks.
func TestAcceptHandoffChurn(t *testing.T) {
	const nConns = 48
	w := newEthWorld()
	tbl := NewConnTable(16)
	serverReady := make(chan struct{})
	srvDone := make(chan error, 1)
	cliDone := make(chan error, 1)

	w.k2.Spawn("server", func(p *aegis.Process) {
		lst := w.ethStack(p, w.e2, w.ip2, listenFilter(w.ip2, 80))
		close(serverReady)
		for i := 0; i < nConns; i++ {
			d, ok, err := lst.RecvUntil(false, 0)
			if err != nil || !ok {
				srvDone <- fmt.Errorf("conn %d: listener recv: ok=%v err=%v", i, ok, err)
				return
			}
			syn, isSyn := ParseSyn(d)
			lst.Release(d)
			if !isSyn {
				srvDone <- fmt.Errorf("conn %d: listener got non-SYN segment", i)
				return
			}
			// Claim the rest of the flow *before* the SYN|ACK goes out, so
			// the handshake ACK demuxes to the new endpoint.
			st := w.ethStack(p, w.e2, w.ip2,
				connFilter(w.ip2, 80, syn.RemoteIP, syn.RemotePort))
			c, err := AcceptHandoff(st, w.ethCfg(2), 80, syn)
			if err != nil {
				srvDone <- fmt.Errorf("conn %d: handoff: %v", i, err)
				return
			}
			if err := tbl.Bind(c.Tuple(), c); err != nil {
				srvDone <- fmt.Errorf("conn %d: %v", i, err)
				return
			}
			// Echo 64 bytes back, interleaving table lookups with the
			// segment delivery the reads trigger.
			buf := p.AS.MustAlloc(64, "echo")
			for got := 0; got < 64; got += 16 {
				if err := c.ReadFull(buf.Base+uint32(got), 16); err != nil {
					srvDone <- fmt.Errorf("conn %d: read: %v", i, err)
					return
				}
				if lc, ok := tbl.Lookup(c.Tuple()); !ok || lc != c {
					srvDone <- fmt.Errorf("conn %d: live lookup failed mid-delivery", i)
					return
				}
			}
			if err := c.WriteFrom(buf.Base, 64); err != nil {
				srvDone <- fmt.Errorf("conn %d: write: %v", i, err)
				return
			}
			// Remove before close: a late segment must never find a conn
			// that is being torn down.
			if !tbl.Remove(c.Tuple()) {
				srvDone <- fmt.Errorf("conn %d: remove: absent", i)
				return
			}
			_ = c.Close()
		}
		srvDone <- nil
	})

	w.k1.Spawn("client", func(p *aegis.Process) {
		<-serverReady
		for i := 0; i < nConns; i++ {
			lport := uint16(1000 + i)
			st := w.ethStack(p, w.e1, w.ip1, listenFilter(w.ip1, lport))
			c, err := Connect(st, w.ethCfg(1), lport, w.ip2, 80)
			if err != nil {
				cliDone <- fmt.Errorf("conn %d: connect: %v", i, err)
				return
			}
			payload := make([]byte, 64)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if err := c.WriteBytes(payload); err != nil {
				cliDone <- fmt.Errorf("conn %d: write: %v", i, err)
				return
			}
			buf := p.AS.MustAlloc(64, "echo")
			if err := c.ReadFull(buf.Base, 64); err != nil {
				cliDone <- fmt.Errorf("conn %d: read: %v", i, err)
				return
			}
			got := w.k1.Bytes(buf.Base, 64)
			for j := range payload {
				if got[j] != payload[j] {
					cliDone <- fmt.Errorf("conn %d: echo corrupted at %d", i, j)
					return
				}
			}
			_ = c.Close()
		}
		cliDone <- nil
	})

	w.eng.Run()
	if err := <-srvDone; err != nil {
		t.Fatalf("server: %v", err)
	}
	if err := <-cliDone; err != nil {
		t.Fatalf("client: %v", err)
	}
	if tbl.Len() != 0 {
		t.Fatalf("table not empty after churn: %d", tbl.Len())
	}
}
