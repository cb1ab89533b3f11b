// Package obsguard is ashlint/obsguard's golden file: emission calls
// whose arguments allocate must sit behind the Enabled()/nil guard
// idiom; Metrics access must always be guarded.
package obsguard

import (
	"fmt"

	"ashs/internal/obs"
)

// --- allocating arguments without a guard ----------------------------

func emitConcatUnguarded(p *obs.Plane, name string) {
	p.Inc("x/" + name) // want "outside an Enabled"
}

func emitSprintfUnguarded(p *obs.Plane, n int) {
	p.Span("h", "t", "cat", fmt.Sprintf("n=%d", n), 0, 0) // want "outside an Enabled"
}

func emitInElseBranch(p *obs.Plane, name string) {
	if p.Enabled() {
		_ = name
	} else {
		p.Inc("x/" + name) // want "outside an Enabled"
	}
}

// --- the guard idioms ------------------------------------------------

func emitGuardedInit(p *obs.Plane, name string) {
	if o := p; o.Enabled() {
		o.Inc("x/" + name)
		o.Span("h", "t", "c", "send "+name, 0, 0)
	}
}

func emitGuardedNil(p *obs.Plane, name string) {
	if p != nil {
		p.Inc("y/" + name)
	}
	if p.Enabled() && name != "" {
		p.Span("h", "t", "c", "z "+name, 0, 0)
	}
}

func emitEarlyReturn(p *obs.Plane, name string) {
	if p == nil {
		return
	}
	p.Inc("x/" + name)
}

// --- zero-cost calls need no guard -----------------------------------

func emitConstant(p *obs.Plane) {
	p.Inc("net/frames_delivered")
	p.Span("h", "t", "c", "fixed", 0, 0)
}

func emitBareVariable(p *obs.Plane, host string) {
	// A field/variable read does not allocate; the nil-safe method is
	// free when disabled.
	p.Span(host, "device", "kernel", "ring deliver", 0, 0)
}

// --- Metrics is not nil-safe -----------------------------------------

func metricsUnguarded(p *obs.Plane) {
	p.Metrics.Counter("c").Inc() // want "unguarded Metrics access"
}

func metricsGuarded(p *obs.Plane) {
	if p.Enabled() {
		p.Metrics.Counter("c").Inc()
	}
	if p != nil {
		_ = p.Metrics.Counter("c").Value()
	}
}
