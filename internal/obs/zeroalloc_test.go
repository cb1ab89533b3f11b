package obs

import (
	"testing"

	"ashs/internal/sim"
)

// TestNilPlaneZeroAlloc pins the zero-cost-disabled contract that
// ashlint/obsguard enforces statically: every emission shape the packet
// fast path uses — constant counter names, span names built from field
// reads, virtual-clock timestamps — must not allocate when the plane is
// nil. A single allocation here would be paid per packet in every
// un-instrumented run.
func TestNilPlaneZeroAlloc(t *testing.T) {
	var p *Plane // disabled: exactly what production passes when -trace is off
	host := "h0"
	var t0, dur sim.Time = 100, 7

	shapes := map[string]func(){
		"Span":    func() { p.Span(host, "device", "device", "eth rx demux", t0, dur) },
		"Instant": func() { p.Instant(host, "device", "kernel", "ring deliver", t0) },
		"Inc":     func() { p.Inc("tcp/retransmits") },
		"guarded concat": func() {
			if o := p; o.Enabled() {
				o.Span(host, "port "+host, "wire", "serialize", t0, dur)
			}
		},
	}
	for name, fn := range shapes {
		if avg := testing.AllocsPerRun(1000, fn); avg != 0 {
			t.Errorf("%s on a nil plane allocates %.1f times per call, want 0", name, avg)
		}
	}
}
