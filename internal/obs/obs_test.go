package obs

import (
	"bytes"
	"strings"
	"testing"

	"ashs/internal/sim"
)

// A nil plane must accept every emission without doing anything.
func TestNilPlaneIsDisabledNoOp(t *testing.T) {
	var p *Plane
	if p.Enabled() {
		t.Fatal("nil plane reports enabled")
	}
	p.Span("h", "t", "kernel", "x", 0, 10)
	p.Instant("h", "t", "kernel", "y", 5)
	p.Inc("c")
	if p.Events() != 0 {
		t.Fatal("nil plane recorded events")
	}
	if got := p.PhaseCycles(0, 100); len(got) != 0 {
		t.Fatalf("nil plane returned phases: %v", got)
	}
}

func TestPhaseCyclesClipsToWindow(t *testing.T) {
	p := New(40)
	p.Span("h", "t", "wire", "a", 0, 100)    // 50 inside [50, 200)
	p.Span("h", "t", "wire", "b", 150, 100)  // 50 inside
	p.Span("h", "t", "kernel", "c", 60, 40)  // fully inside
	p.Span("h", "t", "kernel", "d", 300, 50) // fully outside
	p.Instant("h", "t", "wire", "i", 70)     // instants contribute nothing
	got := p.PhaseCycles(50, 200)
	if got["wire"] != 100 {
		t.Errorf("wire = %d, want 100", got["wire"])
	}
	if got["kernel"] != 40 {
		t.Errorf("kernel = %d, want 40", got["kernel"])
	}
	if _, ok := got["sched"]; ok {
		t.Error("unexpected phase key")
	}
}

func TestTrackInterningIsFirstUseOrder(t *testing.T) {
	p := New(40)
	p.Span("h1", "dev", "device", "a", 0, 1)
	p.Span("h2", "dev", "device", "b", 1, 1)
	p.Span("h1", "dev", "device", "c", 2, 1)
	if len(p.tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(p.tracks))
	}
	if p.events[0].track != 0 || p.events[1].track != 1 || p.events[2].track != 0 {
		t.Fatalf("track ids = %d,%d,%d", p.events[0].track, p.events[1].track, p.events[2].track)
	}
}

func TestWriteTraceDeterministicAndWellFormed(t *testing.T) {
	build := func() *Plane {
		p := New(40)
		p.Span("h1", "device", "device", "rx \"quoted\"", 40, 80)
		p.Instant("h1", "sched", "sched", "dispatch\tapp", 120)
		return p
	}
	a, b := WriteTrace(build()), WriteTrace(build())
	if !bytes.Equal(a, b) {
		t.Fatal("identical planes produced different trace bytes")
	}
	s := string(a)
	// 40 cycles at 40 cycles/us = 1.000 us; fixed 3-decimal formatting;
	// control characters \u-escape so the file stays single-line-safe.
	for _, want := range []string{
		`"ts":1.000`, `"dur":2.000`, `"cycles":40`, `"dur_cycles":80`,
		`"s":"t"`, `\"quoted\"`, `dispatch\u0009app`,
		`"process_name"`, `"thread_name"`, `"displayTimeUnit":"ns"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	// nil planes are skipped, and plane order fixes pid numbering.
	merged := WriteTrace(nil, build())
	if !strings.Contains(string(merged), `"pid":2`) {
		t.Error("second plane should get pid 2 even after a nil plane")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	var h Histogram
	for _, v := range []sim.Time{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1106 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.5); q < 2 || q > 4 {
		t.Errorf("p50 bound = %d, want in [2,4]", q)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Errorf("p100 bound = %d, want >= 1000", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestRegistryCounterIdentity(t *testing.T) {
	p := New(40)
	p.Inc("b")
	p.Inc("a")
	p.Inc("a")
	r := p.Metrics
	if r.Counter("a").Value() != 2 || r.Counter("b").Value() != 1 {
		t.Fatalf("a=%d b=%d, want 2 and 1", r.Counter("a").Value(), r.Counter("b").Value())
	}
	// Accessors are get-or-create: same pointer on reuse, zero when new.
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity not stable")
	}
	if r.Counter("new").Value() != 0 {
		t.Fatal("new counter not at zero")
	}
}
