package ashs_test

import (
	"fmt"
	"strings"
	"testing"

	"ashs"
	"ashs/internal/aegis"
	"ashs/internal/bench"
)

// echoRoundTrip runs the quickstart echo workload (download a handler on
// host 2, ping it from host 1) on an AN2 world and returns the echoed
// payload plus the simulated completion time — a value deterministic in
// the world's construction, so two equivalently built worlds must agree
// exactly.
func echoRoundTrip(t *testing.T, w *ashs.World) ([]byte, ashs.Time) {
	t.Helper()
	const vc = 7
	app := w.Host2.Spawn("app", func(p *ashs.Process) {})
	b := ashs.NewCodeBuilder("echo")
	msg, n := b.Temp(), b.Temp()
	b.Mov(msg, ashs.RArg0)
	b.Mov(n, ashs.RArg1)
	b.MovI(ashs.RArg0, int32(w.AN2Host1.Addr()))
	b.MovI(ashs.RArg1, vc)
	b.Mov(ashs.RArg2, msg)
	b.Mov(ashs.RArg3, n)
	b.Call("ash_send")
	b.MovI(ashs.RRet, 0)
	b.Ret()
	ash, err := w.ASH2.Download(app, b.MustAssemble(), ashs.ASHOptions{})
	if err != nil {
		t.Fatal(err)
	}
	binding, err := w.AN2Host2.BindVC(app, vc, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ash.Attach(binding)

	var got []byte
	w.Host1.Spawn("client", func(p *ashs.Process) {
		ep := w.IPStackAN2(p, 1, vc).Ep
		ep.Send(ashs.LinkAddr{Port: w.AN2Host2.Addr(), VC: vc}, []byte{1, 2, 3, 4})
		f := ep.Recv(true)
		got = make([]byte, f.Len())
		f.Bytes(got, 0, f.Len())
		ep.Release(f)
	})
	w.Run()
	return got, w.Eng.Now()
}

// TestNewWorldDeterministic is the facade-reproducibility check: two
// equivalently built worlds must agree exactly on a real workload's
// payload and simulated completion time. (It previously compared the
// options API against the deprecated NewAN2World/NewEthernetWorld
// wrappers; those are gone, and the determinism property is what the
// comparison was really pinning.)
func TestNewWorldDeterministic(t *testing.T) {
	aGot, aDone := echoRoundTrip(t, ashs.NewWorld())
	bGot, bDone := echoRoundTrip(t, ashs.NewWorld())
	if string(aGot) != string(bGot) || aDone != bDone {
		t.Fatalf("NewWorld() not reproducible: payload %v vs %v, done %d vs %d",
			aGot, bGot, aDone, bDone)
	}

	eth := ashs.NewWorld(ashs.WithEthernet())
	if eth.EthHost1 == nil || eth.EthHost2 == nil {
		t.Fatal("WithEthernet() world missing Ethernet interfaces")
	}
}

// TestWorldClose: Close ends what Run leaves behind — here a process that
// spins forever — hands both hosts' memory back, and the next world,
// running on that memory, reproduces the first one's result.
func TestWorldClose(t *testing.T) {
	a := ashs.NewWorld()
	a.Host2.Spawn("spinner", func(p *ashs.Process) { p.SpinForever() })
	a.RunFor(100)
	a.Close()
	if live := a.Eng.Stats().LiveProcs; live != 0 || a.Host1.Mem.Data != nil || a.Host2.Mem.Data != nil {
		t.Fatalf("after Close: %d live processes, host memory %d/%d bytes",
			live, len(a.Host1.Mem.Data), len(a.Host2.Mem.Data))
	}
	a.Close() // harmless

	b := ashs.NewWorld()
	bGot, bDone := echoRoundTrip(t, b)
	b.Close()
	grown := aegis.ArenaStats().Grown
	c := ashs.NewWorld()
	defer c.Close()
	if now := aegis.ArenaStats().Grown; now != grown {
		t.Errorf("a world built after a Close grew the arena pool (%d -> %d)", grown, now)
	}
	if cGot, cDone := echoRoundTrip(t, c); string(cGot) != string(bGot) || cDone != bDone {
		t.Errorf("world on reused memory: payload %v at %d, first world %v at %d", cGot, cDone, bGot, bDone)
	}
}

// TestWorldOptionOrderInsensitive checks the fix for the old
// AttachObs/AttachFaultPlane ordering hazard: with NewWorld the obs plane
// sees the fault plane's counters no matter how the options are listed.
func TestWorldOptionOrderInsensitive(t *testing.T) {
	sched := ashs.CannedSchedules()[0]
	run := func(opts ...ashs.WorldOption) (*ashs.ObsPlane, ashs.Time) {
		w := ashs.NewWorld(opts...)
		if w.Obs == nil || w.Fault == nil {
			t.Fatal("options did not populate World.Obs / World.Fault")
		}
		_, done := echoRoundTrip(t, w)
		return w.Obs, done
	}
	plA, doneA := run(ashs.WithObs(ashs.NewObsPlane()), ashs.WithFaultPlane(1, sched))
	plB, doneB := run(ashs.WithFaultPlane(1, sched), ashs.WithObs(ashs.NewObsPlane()))
	if doneA != doneB {
		t.Fatalf("option order changed simulated time: %d vs %d", doneA, doneB)
	}
	if plA.Events() != plB.Events() {
		t.Fatalf("option order changed traced events: %d vs %d", plA.Events(), plB.Events())
	}
	if plA.Events() == 0 {
		t.Fatal("obs plane recorded nothing")
	}
}

// TestFaultPlaneInjectionPoints pins that the facade and the chaos cell
// attach a fault plane to the same injection points — the wire, both
// network interfaces and both ASH systems, on either network — since both
// go through Testbed.AttachFault (runChaosOne's only attach call).
func TestFaultPlaneInjectionPoints(t *testing.T) {
	// points reports which of a pair's five injection points are hooked.
	points := func(a1, a2 *aegis.AN2If, e1, e2 *aegis.EthernetIf, s1, s2 *ashs.ASHSystem) [5]bool {
		sys1, sys2 := s1.InjectAbort != nil, s2.InjectAbort != nil
		if e1 != nil {
			return [5]bool{e1.Sw.Inject != nil, e1.InjectFault != nil, e2.InjectFault != nil, sys1, sys2}
		}
		return [5]bool{a1.Sw.Inject != nil, a1.InjectFault != nil, a2.InjectFault != nil, sys1, sys2}
	}
	sched := ashs.CannedSchedules()[0]
	for _, eth := range []bool{false, true} {
		w, tb := ashs.NewWorld(), bench.NewAN2Testbed(nil)
		if eth {
			w, tb = ashs.NewWorld(ashs.WithEthernet()), bench.NewEthernetTestbed(nil)
		}
		facade := func() [5]bool {
			return points(w.AN2Host1, w.AN2Host2, w.EthHost1, w.EthHost2, w.ASH1, w.ASH2)
		}
		chaos := func() [5]bool { return points(tb.A1, tb.A2, tb.E1, tb.E2, tb.Sys1, tb.Sys2) }
		if facade() != ([5]bool{}) || chaos() != ([5]bool{}) {
			t.Fatalf("eth=%v: injection points hooked before any attach", eth)
		}
		w.AttachFaultPlane(ashs.NewFaultPlane(1, sched))
		tb.AttachFault(ashs.NewFaultPlane(1, sched))
		if f, c := facade(), chaos(); f != c || f != ([5]bool{true, true, true, true, true}) {
			t.Errorf("eth=%v: facade attached %v, chaos testbed %v, want all five points on both", eth, f, c)
		}
	}
}

// TestFacadeRejectsBadHostAndNetwork: the stack constructors and StartARP
// take a host number and presume a network; anything but host 1 or 2 on a
// world that has the device asked for panics with a message naming both,
// instead of silently meaning host 1 (or 2) or dying on a nil interface.
func TestFacadeRejectsBadHostAndNetwork(t *testing.T) {
	an2, eth := ashs.NewWorld(), ashs.NewWorld(ashs.WithEthernet())
	defer an2.Close()
	defer eth.Close()
	cases := []struct {
		name string
		call func(p *ashs.Process)
		want []string // substrings of the panic message
	}{
		{"AN2 host 0", func(p *ashs.Process) { an2.IPStackAN2(p, 0, 7) }, []string{"host 0", "AN2"}},
		{"AN2 host 3", func(p *ashs.Process) { an2.IPStackAN2(p, 3, 7) }, []string{"host 3", "AN2"}},
		{"Ethernet host 0", func(p *ashs.Process) { eth.IPStackEthernet(p, 0, 17, 53, nil) }, []string{"host 0", "Ethernet"}},
		{"Ethernet host 3", func(p *ashs.Process) { eth.IPStackEthernet(p, 3, 17, 53, nil) }, []string{"host 3", "Ethernet"}},
		{"ARP host 7", func(*ashs.Process) { _, _ = eth.StartARP(7) }, []string{"StartARP(7)", "Ethernet"}},
		{"AN2 stack on Ethernet", func(p *ashs.Process) { eth.IPStackAN2(p, 1, 7) }, []string{"AN2 stack", "host 1", "Ethernet"}},
		{"Ethernet stack on AN2", func(p *ashs.Process) { an2.IPStackEthernet(p, 2, 17, 53, nil) }, []string{"Ethernet stack", "host 2", "AN2"}},
		{"ARP on AN2", func(*ashs.Process) { _, _ = an2.StartARP(1) }, []string{"StartARP(1)", "AN2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, w := range c.want {
					if !strings.Contains(msg, w) {
						t.Errorf("panic %q does not mention %q", msg, w)
					}
				}
			}()
			c.call(nil) // the arguments are checked before the process is touched
			t.Error("no panic")
		})
	}
}
