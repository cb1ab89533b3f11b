package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestScaleSubLinearDemux is the experiment's core claim at test-sized N:
// the server's per-message kernel cost must grow sub-linearly in the
// client count (the trie classifies in O(depth), not O(filters), and
// batched interrupts amortize bursts), and the DPF classification cost
// itself must stay essentially flat.
func TestScaleSubLinearDemux(t *testing.T) {
	const m = 2
	for _, wl := range scaleWorkloads {
		r1 := scaleCell(wl.name, 1, m).Run(nil).(ScaleResult)
		r64 := scaleCell(wl.name, 64, m).Run(nil).(ScaleResult)
		if r1.Msgs != m || r64.Msgs != 64*m {
			t.Fatalf("%s: message counts %d/%d, want %d/%d", wl.name, r1.Msgs, r64.Msgs, m, 64*m)
		}
		if r64.CycPerMsg >= 64*r1.CycPerMsg {
			t.Errorf("%s: cyc/msg grew linearly: N=1 %.1f, N=64 %.1f", wl.name, r1.CycPerMsg, r64.CycPerMsg)
		}
		// Flat is the real expectation — allow 2x for handshake traffic mix.
		if r64.DemuxPerMsg > 2*r1.DemuxPerMsg {
			t.Errorf("%s: demux/msg not flat: N=1 %.1f, N=64 %.1f", wl.name, r1.DemuxPerMsg, r64.DemuxPerMsg)
		}
		if r1.BatchedPct != 0 {
			t.Errorf("%s: N=1 batched interrupts %.1f%%, want 0", wl.name, r1.BatchedPct)
		}
	}
}

// TestScaleDeterminism renders a reduced sweep serially and with four
// workers; the merged output must be byte-identical (the CI gate does the
// same over the full ashbench suite).
func TestScaleDeterminism(t *testing.T) {
	cells := func() []Cell {
		var cs []Cell
		for _, wl := range scaleWorkloads {
			for _, n := range []int{1, 16} {
				cs = append(cs, scaleCell(wl.name, n, 2))
			}
		}
		return cs
	}

	render := func(parallel int) string {
		cfg := &Config{Parallel: parallel}
		vs := cellResults(cfg, cells())
		var out string
		for _, v := range vs {
			r := v.(ScaleResult)
			out += fmt.Sprintf("%s N=%d msgs=%d thr=%.3f mean=%.3f p50=%.1f p99=%.1f cyc=%.3f demux=%.3f batched=%.3f\n",
				r.Workload, r.N, r.Msgs, r.ThrMsgMs, r.MeanUs, r.P50Us, r.P99Us,
				r.CycPerMsg, r.DemuxPerMsg, r.BatchedPct)
		}
		return out
	}

	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("scale results differ between -parallel 1 and -parallel 4:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// TestScaleRenderShape checks the renderer consumes cells in enumeration
// order: one section per workload, one row per N.
func TestScaleRenderShape(t *testing.T) {
	var vs []any
	for _, wl := range scaleWorkloads {
		for _, n := range scaleNs {
			vs = append(vs, ScaleResult{Workload: wl.name, N: n, Msgs: 1})
		}
	}
	out := renderScale(vs)
	for _, wl := range scaleWorkloads {
		if !strings.Contains(out, wl.name) {
			t.Errorf("render lacks workload %q:\n%s", wl.name, out)
		}
	}
	if rows := strings.Count(out, "\n") - 2 - 2*len(scaleWorkloads); rows != len(scaleWorkloads)*len(scaleNs) {
		t.Errorf("render has %d data rows, want %d:\n%s", rows, len(scaleWorkloads)*len(scaleNs), out)
	}
}
