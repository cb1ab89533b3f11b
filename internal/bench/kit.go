package bench

import (
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/dpf"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/tcp"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// The pair kit: the paper's two-host workloads, each written once. The
// evaluation re-runs a handful of them under different configurations — a
// 4-byte ping-pong, a remote increment, 10 MB in 8-KB writes, one handler
// run on a synthetic message — so each is a driver whose fields are the
// configuration (handler placement, socket options, scheduling state), and
// the experiments enumerate values of it; the network is the cell's world.
// Process names, spawn order, ports and circuits are part of the simulated
// result and of the trace.

// must ends the cell when a step of its workload is refused. A driver that
// dropped the error would leave the peer waiting for a message that was
// never sent: a blocked peer lets the engine drain, so the measurement is
// never taken and the cell reports the zero it started with; a polling one
// spins the simulation forever.
func must(label string, err error) {
	if err != nil {
		panic(fmt.Sprintf("%s: %v", label, err))
	}
}

// tcpPair is how the suite's one TCP connection runs: each end takes cfg
// with its own host's system as Sys, and on a suspended pair both hosts
// get the boost scheduler and one compute-bound competitor each before the
// connection's processes spawn.
type tcpPair struct {
	cfg       tcp.Config
	suspended bool
}

// tcpAt is cfg for host's end of the pair.
func (tb *Testbed) tcpAt(cfg tcp.Config, host int) tcp.Config {
	cfg.Sys = tb.hosts[host-1].sys
	return cfg
}

// open readies the pair: host 2 accepts on port 80, host 1 connects from
// port 1234.
func (c tcpPair) open(tb *Testbed) (accept, connect func(p *aegis.Process) *tcp.Conn) {
	if c.suspended {
		tb.K1.Sched = aegis.NewPriorityBoost(tb.K1)
		tb.K2.Sched = aegis.NewPriorityBoost(tb.K2)
		tb.K1.Spawn("competitor1", func(p *aegis.Process) { p.SpinForever() })
		tb.K2.Spawn("competitor2", func(p *aegis.Process) { p.SpinForever() })
	}
	accept = func(p *aegis.Process) *tcp.Conn {
		conn, err := tcp.Accept(tb.stack(p, 2, ip.ProtoTCP, 80), tb.tcpAt(c.cfg, 2), 80)
		if err != nil {
			panic(err)
		}
		return conn
	}
	connect = func(p *aegis.Process) *tcp.Conn {
		conn, err := tcp.Connect(tb.stack(p, 1, ip.ProtoTCP, 1234), tb.tcpAt(c.cfg, 1), 1234, tb.IP2, 80)
		if err != nil {
			panic(err)
		}
		return conn
	}
	return accept, connect
}

// tcpPingPong measures a 4-byte application-level ping-pong, us per round
// trip.
type tcpPingPong struct {
	tcpPair
	iters int
}

func (d tcpPingPong) drive(_ *Config, w *world) any {
	tb, iters := w.tb, d.iters
	accept, connect := d.open(tb)
	tb.K2.Spawn("server", func(p *aegis.Process) {
		conn := accept(p)
		buf := p.AS.MustAlloc(64, "rx")
		for i := 0; i < 2+iters; i++ {
			must("tcp server", conn.ReadFull(buf.Base, 4))
			must("tcp server", conn.Write(buf.Base, 4))
		}
		_ = conn.Close()
	})
	var total, start sim.Time
	done := false
	tb.K1.Spawn("client", func(p *aegis.Process) {
		conn := connect(p)
		buf := p.AS.MustAlloc(64, "tx")
		for i := 0; i < 2+iters; i++ {
			if i == 2 {
				start = p.K.Now()
			}
			must("tcp client", conn.Write(buf.Base, 4))
			must("tcp client", conn.ReadFull(buf.Base, 4))
		}
		total = p.K.Now() - start
		done = true
		_ = conn.Close()
	})
	tb.runUntil(func() bool { return done }, 60_000_000_000, 100_000)
	tb.window = [2]sim.Time{start, start + total}
	return tb.Us(total) / float64(iters)
}

// tcpStream measures bulk throughput, MB/s: bytes written in writeSize
// chunks over a synchronous-write connection.
type tcpStream struct {
	tcpPair
	bytes, writeSize int
}

func (d tcpStream) drive(_ *Config, w *world) any {
	tb, totalBytes, writeSize := w.tb, d.bytes, d.writeSize
	accept, connect := d.open(tb)
	tb.K2.Spawn("server", func(p *aegis.Process) {
		conn := accept(p)
		buf := p.AS.MustAlloc(writeSize+64, "rx")
		got := 0
		for got < totalBytes {
			n, err := conn.Read(buf.Base, writeSize)
			if err != nil {
				panic(err)
			}
			got += n
		}
		_ = conn.Close()
	})
	var total sim.Time
	done := false
	tb.K1.Spawn("client", func(p *aegis.Process) {
		conn := connect(p)
		buf := p.AS.MustAlloc(writeSize, "tx")
		start := p.K.Now()
		for sent := 0; sent < totalBytes; sent += writeSize {
			must("tcp client", conn.Write(buf.Base, min(writeSize, totalBytes-sent)))
		}
		total = p.K.Now() - start
		done = true
		_ = conn.Close()
	})
	tb.runUntil(func() bool { return done }, 600_000_000_000, 100_000)
	return tb.Prof.MBps(totalBytes, total)
}

// rawPingPong measures Table I's user-level rows, us per round trip: a
// 4-byte message ping-ponged between polling processes that use the full
// system call interface over raw link endpoints, on the AN2 or the
// Ethernet.
type rawPingPong struct{ iters int }

func (d rawPingPong) drive(_ *Config, w *world) any {
	tb, iters := w.tb, d.iters
	// The AN2 demultiplexes on the circuit, the Ethernet with a DPF filter on
	// the first payload byte: a message carries its receiver's tag.
	const echoTag, clientTag = 0xAA, 0xBB
	eth, vc := tb.E1 != nil, 5
	if eth {
		vc = 0
	}
	bind := func(p *aegis.Process, h *host, tag byte) (ep *link.Link) {
		var err error
		if eth {
			ep, err = link.BindEthernet(h.eth, p, dpf.NewFilter().Eq8(0, tag))
		} else {
			ep, err = link.BindAN2(h.an2, p, vc, 8, 4096)
		}
		if err != nil {
			panic(err)
		}
		return ep
	}
	h1, h2 := tb.hosts[0], tb.hosts[1]
	tb.K2.Spawn("echo", func(p *aegis.Process) {
		ep := bind(p, h2, echoTag)
		for i := 0; i < iters; i++ {
			f := ep.Recv(true)
			msg := make([]byte, f.Len())
			f.Bytes(msg, 0, f.Len())
			msg[0] = clientTag
			ep.Release(f)
			ep.Send(link.Addr{Port: f.Entry.Src, VC: vc}, msg)
		}
	})
	var total, start sim.Time
	tb.K1.Spawn("client", func(p *aegis.Process) {
		ep := bind(p, h1, clientTag)
		start = p.K.Now()
		for i := 0; i < iters; i++ {
			ep.Send(link.Addr{Port: h2.addr(), VC: vc}, []byte{echoTag, 0, 0, 4})
			f := ep.Recv(true)
			ep.Release(f)
		}
		total = p.K.Now() - start
	})
	tb.run()
	tb.window = [2]sim.Time{start, start + total}
	return tb.Us(total) / float64(iters)
}

// The remote-increment kit (Table V, Fig. 4): an active message that bumps
// a counter on host 2 and is answered with a 4-byte reply, over AN2 circuit
// incrementVC. The first incrementWarmup round trips are not measured.
const (
	incrementVC     = 9
	incrementWarmup = 2
	// incrementCycles is the user-level server's increment and reply
	// build; uncalibrated.
	incrementCycles sim.Time = 10
)

// remoteIncrement measures the remote-increment round trip, us: a
// user-level polling client on host 1, the handler placement mech on host
// 2, and host 2's scheduling state. A message can be lost before the
// server has bound its circuit (its process may be queued behind a
// competitor's quantum), and a wait can span many competitor quanta, so
// the client re-sends every increment after timeoutUs; boundUs bounds the
// run.
type remoteIncrement struct {
	mech  Mechanism
	iters int
	// poll has a user-level server poll rather than block until the
	// interrupt path wakes it.
	poll bool
	// boost gives host 2 the priority-boost scheduler; ultrix also makes
	// the world's kernel operations Ultrix-class (ultrixify).
	boost, ultrix bool
	// competitors compute-bound processes are spawned on host 2 first,
	// named "competitor", or "competitor-1"... when numbered.
	competitors int
	numbered    bool
	timeoutUs   float64
	boundUs     float64
}

func (d remoteIncrement) drive(_ *Config, w *world) any {
	tb := w.tb
	if d.boost {
		tb.K2.Sched = aegis.NewPriorityBoost(tb.K2)
	}
	if d.ultrix {
		ultrixify(tb.Prof)
	}
	for i := 1; i <= d.competitors; i++ {
		name := "competitor"
		if d.numbered {
			name = fmt.Sprintf("competitor-%d", i)
		}
		tb.K2.Spawn(name, func(p *aegis.Process) { p.SpinForever() })
	}
	if d.mech == MechUserLevel {
		// A "server" process receives — polling, or blocked until the
		// interrupt path wakes it — increments, and replies, warm-up
		// included.
		tb.K2.Spawn("server", func(p *aegis.Process) {
			ep, err := link.BindAN2(tb.A2, p, incrementVC, 8, 4096)
			if err != nil {
				panic(err)
			}
			counter := p.AS.MustAlloc(64, "counter")
			for i := 0; i < incrementWarmup+d.iters; i++ {
				f := ep.Recv(d.poll)
				// Increment: read the amount, bump, build the reply.
				inc := f.U32(0)
				v, _ := vcode.Load32(p.AS, counter.Base)
				_ = vcode.Store32(p.AS, counter.Base, v+inc)
				p.Compute(incrementCycles)
				reply := make([]byte, 4)
				ep.Release(f)
				ep.Send(link.Addr{Port: f.Entry.Src, VC: incrementVC}, reply)
			}
		})
	} else {
		// crl's increment handler, downloaded under the mechanism's options
		// for a fresh "dsm-app", is bound to the circuit as an ASH. An
		// upcall circuit instead gets the same code run at user level
		// through the upcall path, from a second, unsafe download —
		// hardware protects a user-level handler; the first download is
		// then unused, but it is an instant in the committed trace.
		owner := tb.K2.Spawn("dsm-app", func(p *aegis.Process) {})
		node := crl.NewNode(tb.Sys2, owner)
		prog := crl.IncrementHandler(node.CounterSeg.Base, tb.A1.Addr(), incrementVC)
		ash := tb.Sys2.MustDownload(owner, prog, core.Options{Unsafe: d.mech == MechUnsafeASH, OptimizeSFI: d.mech == MechOptASH})
		b, err := tb.A2.BindVC(owner, incrementVC, 8, 4096)
		if err != nil {
			panic(err)
		}
		if d.mech == MechUpcall {
			b.Upcall = tb.Sys2.MustDownload(owner, prog, core.Options{Unsafe: true}).AsUpcall()
		} else {
			ash.Attach(b)
		}
	}
	var start, total sim.Time
	done := false
	tb.K1.Spawn("client", func(p *aegis.Process) {
		ep, err := link.BindAN2(tb.A1, p, incrementVC, 8, 4096)
		if err != nil {
			panic(err)
		}
		for i := 0; i < incrementWarmup+d.iters; i++ {
			if i == incrementWarmup {
				start = p.K.Now()
			}
			for {
				ep.Send(link.Addr{Port: tb.A2.Addr(), VC: incrementVC}, []byte{0, 0, 0, 1})
				f, ok := ep.RecvUntil(true, p.K.Now()+tb.Prof.Cycles(d.timeoutUs))
				if ok {
					ep.Release(f)
					break
				}
			}
		}
		total = p.K.Now() - start
		done = true
	})
	tb.runUntil(func() bool { return done }, d.boundUs, 100_000)
	tb.window = [2]sim.Time{start, start + total}
	return tb.Us(total) / float64(d.iters)
}

// synthetic runs handlers on one synthetic message in isolation (Section
// V-D's methodology: no communication, the handler running in the kernel).
// It spawns the handlers' owner, name, on host 2; install downloads the
// handlers and returns the message, which is placed at the start of a
// bufBytes buffer of the owner's. Then, at time 0 — inside an engine
// event, as an arrival would be — it calls measure with run, which drives
// handlers in sequence over the message and reports their dynamic
// instruction count (data copying runs through the trusted engine and is
// not in it) and the message's total cycles. Every handler must consume
// the message. Last, the world drains.
func synthetic(tb *Testbed, name string, bufBytes int, install func(owner *aegis.Process) []byte,
	measure func(run func(handlers ...*core.ASH) (insns int64, cycles sim.Time))) {
	owner := tb.K2.Spawn(name, func(p *aegis.Process) {})
	msg := install(owner)
	buf := owner.AS.MustAlloc(bufBytes, "synthetic-msg")
	copy(tb.K2.Bytes(buf.Base, len(msg)), msg)
	entry := aegis.RingEntry{Addr: buf.Base, Len: len(msg)}
	tb.Eng.Schedule(0, func() {
		measure(func(handlers ...*core.ASH) (insns int64, cycles sim.Time) {
			mc := aegis.SyntheticMsg(tb.K2, owner, entry)
			for _, h := range handlers {
				if d := h.HandleMsg(mc); d != aegis.DispConsumed || h.InvoluntaryFault != nil {
					panic(fmt.Sprintf("bench: %s on a synthetic message: disposition %v, fault %v", h.Name, d, h.InvoluntaryFault))
				}
				insns += h.LastInsns()
			}
			return insns, mc.Cost()
		})
	})
	tb.run()
}
