// Package obs is the simulator's observability plane: tracing keyed to
// the virtual clock, plus the named counters the benchmark harness reads.
//
// The paper's whole evaluation is a cost-accounting argument — Tables I–VI
// decompose round-trip latency into kernel crossings, demultiplexing,
// handler execution, DMA, and wire time. This package makes the same
// decomposition available for any run: every layer of the stack (wire,
// device driver, kernel, ASH system, protocol library) emits spans and
// instants against one Plane, and the result exports as Chrome
// trace_event JSON so a run opens directly in Perfetto or
// chrome://tracing.
//
// Two properties are load-bearing:
//
//   - Zero cost when disabled. A nil *Plane is valid; every emission
//     method is a nil-receiver no-op, so an uninstrumented run pays one
//     pointer test per site and allocates nothing. Tracing never charges
//     simulated cycles, so enabling it cannot perturb a measurement.
//
//   - Determinism. Timestamps come from the virtual clock, names are
//     fixed strings or deterministically formatted values, and events are
//     recorded in engine order, so two runs of the same (workload, seed)
//     export byte-identical traces. The breakdown experiment's CI gate
//     asserts exactly that.
package obs

import (
	"math/bits"
	"strconv"
	"strings"

	"ashs/internal/sim"
)

// Plane is one testbed's observability plane: a tracer on the virtual
// clock and a registry of named counters. A nil *Plane is valid and
// disabled.
type Plane struct {
	// CyclesPerUs converts virtual cycles to microseconds at export time
	// (40 for the DECstation profile).
	CyclesPerUs float64

	// Metrics is the plane's named-counter registry.
	Metrics *Registry

	tracks   []trackInfo
	trackIDs map[trackInfo]int
	events   []event
}

type trackInfo struct{ proc, thread string }

type event struct {
	track int
	ph    byte // 'X' complete span, 'i' instant
	cat   string
	name  string
	at    sim.Time
	dur   sim.Time
}

// New builds an enabled plane. cyclesPerUs is the virtual-clock rate
// (profile MHz).
func New(cyclesPerUs float64) *Plane {
	return &Plane{
		CyclesPerUs: cyclesPerUs,
		Metrics:     NewRegistry(),
		trackIDs:    map[trackInfo]int{},
	}
}

// Enabled reports whether emissions are recorded. All emission methods
// are nil-safe; Enabled exists so call sites can skip building dynamic
// event names when the plane is off.
func (p *Plane) Enabled() bool { return p != nil }

// track interns a (process, thread) timeline, assigning ids in first-use
// order (deterministic: the engine is single-threaded lock-step).
func (p *Plane) track(proc, thread string) int {
	ti := trackInfo{proc, thread}
	if id, ok := p.trackIDs[ti]; ok {
		return id
	}
	id := len(p.tracks)
	p.tracks = append(p.tracks, ti)
	p.trackIDs[ti] = id
	return id
}

// Span records a complete event of dur cycles starting at start on the
// (proc, thread) timeline. cat is the phase key the latency-breakdown
// experiment aggregates by (see PhaseCycles).
func (p *Plane) Span(proc, thread, cat, name string, start, dur sim.Time) {
	if p == nil {
		return
	}
	p.events = append(p.events, event{
		track: p.track(proc, thread), ph: 'X', cat: cat, name: name,
		at: start, dur: dur,
	})
}

// Instant records a point event at virtual time at.
func (p *Plane) Instant(proc, thread, cat, name string, at sim.Time) {
	if p == nil {
		return
	}
	p.events = append(p.events, event{
		track: p.track(proc, thread), ph: 'i', cat: cat, name: name, at: at,
	})
}

// Inc bumps the named counter by one (nil-safe).
func (p *Plane) Inc(name string) {
	if p == nil {
		return
	}
	p.Metrics.Counter(name).Inc()
}

// Events reports how many trace events have been recorded.
func (p *Plane) Events() int {
	if p == nil {
		return 0
	}
	return len(p.events)
}

// PhaseCycles sums span durations by category, clipped to the window
// [from, to). Instants contribute nothing. The latency-breakdown
// experiment uses this to attribute a measurement window to phases.
func (p *Plane) PhaseCycles(from, to sim.Time) map[string]sim.Time {
	out := map[string]sim.Time{}
	if p == nil {
		return out
	}
	for _, ev := range p.events {
		if ev.ph != 'X' {
			continue
		}
		lo, hi := ev.at, ev.at+ev.dur
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			out[ev.cat] += hi - lo
		}
	}
	return out
}

// --------------------------------------------------------------------
// Chrome trace_event export
// --------------------------------------------------------------------

// us renders a cycle count as microseconds with fixed (deterministic)
// formatting. The DECstation's 40 cycles/us divides exactly into
// thousandths, so three decimals lose nothing.
func (p *Plane) us(c sim.Time) string {
	return strconv.FormatFloat(float64(c)/p.CyclesPerUs, 'f', 3, 64)
}

func jsonEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			b.WriteString("\\u00")
			const hex = "0123456789abcdef"
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// WriteTrace renders the planes as one Chrome trace_event JSON document.
// Each plane becomes one process-id namespace; each (proc, thread) track
// becomes one thread, labeled by metadata events. The output is built
// with fixed field order and fixed number formatting so identical runs
// produce byte-identical files.
func WriteTrace(planes ...*Plane) []byte {
	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(s string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(s)
	}
	for pi, p := range planes {
		if p == nil {
			continue
		}
		pid := strconv.Itoa(pi + 1)
		for ti, tr := range p.tracks {
			tid := strconv.Itoa(ti + 1)
			emit("{\"ph\":\"M\",\"pid\":" + pid + ",\"tid\":" + tid +
				",\"name\":\"process_name\",\"args\":{\"name\":\"" +
				jsonEscape(tr.proc) + "\"}}")
			emit("{\"ph\":\"M\",\"pid\":" + pid + ",\"tid\":" + tid +
				",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
				jsonEscape(tr.thread) + "\"}}")
		}
		for _, ev := range p.events {
			tid := strconv.Itoa(ev.track + 1)
			var s strings.Builder
			s.WriteString("{\"ph\":\"")
			s.WriteByte(ev.ph)
			s.WriteString("\",\"pid\":" + pid + ",\"tid\":" + tid)
			s.WriteString(",\"cat\":\"" + jsonEscape(ev.cat) + "\"")
			s.WriteString(",\"name\":\"" + jsonEscape(ev.name) + "\"")
			s.WriteString(",\"ts\":" + p.us(ev.at))
			if ev.ph == 'X' {
				s.WriteString(",\"dur\":" + p.us(ev.dur))
			} else {
				s.WriteString(",\"s\":\"t\"")
			}
			s.WriteString(",\"args\":{\"cycles\":" +
				strconv.FormatInt(int64(ev.at), 10))
			if ev.ph == 'X' {
				s.WriteString(",\"dur_cycles\":" +
					strconv.FormatInt(int64(ev.dur), 10))
			}
			s.WriteString("}}")
			emit(s.String())
		}
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return []byte(b.String())
}

// --------------------------------------------------------------------
// Metrics registry
// --------------------------------------------------------------------

// Counter is a monotonically increasing count.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Value reads the count.
func (c *Counter) Value() uint64 { return c.n }

// histBuckets is the number of power-of-two cycle buckets: bucket i
// counts observations v with 2^(i-1) < v <= 2^i (bucket 0: v <= 1), so
// 1<<i is a true upper bound on everything in bucket i.
const histBuckets = 40

// Histogram is a cycle-bucketed latency histogram with power-of-two
// bucket bounds — wide enough for one cycle to whole-second spans.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     sim.Time
	max     sim.Time
}

// Observe records one value.
func (h *Histogram) Observe(v sim.Time) {
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := 0
	if v > 1 {
		i = bits.Len64(uint64(v - 1)) // smallest i with v <= 1<<i
		if i > histBuckets-1 {
			i = histBuckets - 1
		}
	}
	h.buckets[i]++
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the total of all observations, in cycles.
func (h *Histogram) Sum() sim.Time { return h.sum }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) from the
// bucket counts: the bound of the bucket in which the q-th observation
// falls. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			return sim.Time(1) << uint(i)
		}
	}
	return h.max
}

// Registry holds named counters, created at zero on first use.
type Registry struct {
	counters map[string]*Counter
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}}
}

// Counter returns the named counter, creating it at zero.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}
