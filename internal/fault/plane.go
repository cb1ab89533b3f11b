package fault

import (
	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/netdev"
	"ashs/internal/obs"
	"ashs/internal/sim"
)

// Counters aggregates every fault the plane injected. The struct is
// comparable: the chaos soak reruns a seed and asserts the two counter
// sets are identical, which is the determinism contract in one `==`.
type Counters struct {
	WireDrops, WireCorruptions, WireSneaks uint64
	WireDups, WireReorders, WireDelays     uint64
	DeviceRingDrops, DevicePoolDrops       uint64
	DeviceTruncations                      uint64
	AbortBudget, AbortTimer                uint64
}

// Plane drives one schedule from one seed. All injection decisions come
// from a single splitmix64 stream, and the simulation itself is a
// deterministic discrete-event engine, so identical (seed, schedule,
// workload) triples replay identically — the same frames are dropped,
// the same bits flip, the same handler invocations abort.
type Plane struct {
	Seed  int64
	Sched Schedule
	C     Counters

	rng *sim.Rand
	sw  *netdev.Switch

	// Obs optionally mirrors every injected-fault count into an
	// observability plane's metrics registry (nil disables). The Counters
	// struct stays the source of truth — the chaos soak's determinism
	// check compares it with one `==`.
	Obs *obs.Plane
}

// Observe mirrors the plane's fault counts into o's metrics registry.
func (p *Plane) Observe(o *obs.Plane) { p.Obs = o }

// New builds a plane for one run.
func New(seed int64, sched Schedule) *Plane {
	return &Plane{Seed: seed, Sched: sched, rng: sim.NewRand(seed)}
}

// AttachWire installs the wire-layer faults on the switch's injector
// hook. Held-back frames (duplicates, reorders, delays) re-enter through
// Redeliver, which bypasses the injector so the plane never perturbs its
// own output.
func (p *Plane) AttachWire(sw *netdev.Switch) {
	p.sw = sw
	sw.Inject = p.injectWire
}

// AttachDevice installs the device-layer faults on a network interface
// (pass &iface.NIC; either device).
func (p *Plane) AttachDevice(n *aegis.NIC) { n.InjectFault = p.deviceFault }

// AttachSystem installs the kernel-layer faults: forced involuntary
// aborts of downloaded handlers, delivered as budget exhaustion or the
// two-tick watchdog firing mid-handler.
func (p *Plane) AttachSystem(sys *core.System) {
	sys.InjectAbort = func(string) (core.AbortMode, int64) {
		a := p.Sched.Abort
		switch {
		case p.rng.Prob(a.BudgetProb):
			p.C.AbortBudget++
			p.Obs.Inc("fault/abort_budget")
			return core.AbortBudget, int64(4 + p.rng.Intn(24))
		case p.rng.Prob(a.TimerProb):
			p.C.AbortTimer++
			p.Obs.Inc("fault/abort_timer")
			return core.AbortTimer, int64(100 + p.rng.Intn(900))
		}
		return core.AbortNone, 0
	}
}

// injectWire applies at most one wire fault per frame, evaluated in
// declaration order.
func (p *Plane) injectWire(pkt *netdev.PacketBuf) bool {
	w := p.Sched.Wire
	switch {
	case p.rng.Prob(w.DropProb):
		p.C.WireDrops++
		p.Obs.Inc("fault/wire_drops")
		return false
	case p.rng.Prob(w.CorruptProb):
		p.C.WireCorruptions++
		p.Obs.Inc("fault/wire_corruptions")
		p.flipBit(pkt, false)
	case p.rng.Prob(w.SneakProb):
		p.C.WireSneaks++
		p.Obs.Inc("fault/wire_sneaks")
		p.flipBit(pkt, true)
	case p.rng.Prob(w.DupProb):
		// Deliver now and again after the hold interval.
		p.C.WireDups++
		p.Obs.Inc("fault/wire_dups")
		p.holdThenRedeliver(p.clone(pkt), 1)
	case p.rng.Prob(w.ReorderProb):
		// Hold this frame back; frames behind it overtake.
		p.C.WireReorders++
		p.Obs.Inc("fault/wire_reorders")
		p.holdThenRedeliver(p.clone(pkt), 1)
		return false
	case p.rng.Prob(w.DelayProb):
		p.C.WireDelays++
		p.Obs.Inc("fault/wire_delays")
		p.holdThenRedeliver(p.clone(pkt), p.rng.Float64())
		return false
	}
	return true
}

// flipBit corrupts one random bit of the payload. With refresh the FCS is
// recomputed so the corruption survives the board CRC and only an
// end-to-end checksum can catch it; without, the board rejects the frame.
// The leased wire buffer is already private to this flight (senders hand
// the switch a copy at Lease time), so the corruption lands in place.
func (p *Plane) flipBit(pkt *netdev.PacketBuf, refresh bool) {
	data := pkt.Bytes()
	if len(data) == 0 {
		return
	}
	i := p.rng.Intn(len(data) * 8)
	data[i/8] ^= 1 << (i % 8)
	if refresh {
		pkt.FCS = netdev.FrameCheck(data)
	}
}

// holdThenRedeliver re-introduces pkt after frac of the schedule's hold
// interval; the held lease is consumed by Redeliver.
func (p *Plane) holdThenRedeliver(pkt *netdev.PacketBuf, frac float64) {
	us := p.Sched.Wire.HoldUs
	if us <= 0 {
		us = 50
	}
	d := p.sw.Prof.Cycles(us * frac)
	if d < 1 {
		d = 1
	}
	p.sw.Eng.Schedule(d, func() { p.sw.Redeliver(pkt) })
}

// deviceFault rolls the device-layer faults for one delivered frame.
func (p *Plane) deviceFault(pkt *netdev.PacketBuf) aegis.DeviceFault {
	d := p.Sched.Device
	var df aegis.DeviceFault
	switch {
	case p.rng.Prob(d.RingOverflowProb):
		p.C.DeviceRingDrops++
		p.Obs.Inc("fault/device_ring_drops")
		df.DropRing = true
	case p.rng.Prob(d.PoolExhaustProb):
		p.C.DevicePoolDrops++
		p.Obs.Inc("fault/device_pool_drops")
		df.DropPool = true
	case p.rng.Prob(d.TruncateProb):
		if n := pkt.Len(); n > 1 {
			p.C.DeviceTruncations++
			p.Obs.Inc("fault/device_truncations")
			df.TruncateTo = 1 + p.rng.Intn(n-1)
		}
	}
	return df
}

// clone leases an independent copy of a frame so a held duplicate or
// reordered original survives past the delivered one, carrying the same
// addressing and frame check.
func (p *Plane) clone(pkt *netdev.PacketBuf) *netdev.PacketBuf {
	cp := p.sw.LeaseData(pkt.Bytes())
	cp.Src, cp.Dst, cp.VC, cp.FCS = pkt.Src, pkt.Dst, pkt.VC, pkt.FCS
	return cp
}
