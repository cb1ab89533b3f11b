package bench

import (
	"testing"

	"ashs/internal/obs"
)

// TestChaosFillCheck pins the table-driven fill and verify of the chaos
// payload against chaosPattern, the definition the table is built from:
// windows that start anywhere in a period, run across its end, and lie
// many periods out; and a single wrong byte anywhere in a window is seen.
func TestChaosFillCheck(t *testing.T) {
	for _, w := range []struct{ off, n int }{
		{0, 8192}, {chaosPeriod - 100, 8192}, {chaosPeriod - 1, 2}, {chaosPeriod, 4096},
		{10<<20 - 4096, 4096}, {7*chaosPeriod + 12345, chaosPeriod}, {3, 0},
	} {
		data := make([]byte, w.n)
		chaosFill(data, w.off)
		for i, b := range data {
			if b != chaosPattern(w.off+i) {
				t.Fatalf("fill at %d+%d: byte %d is %#x, chaosPattern says %#x", w.off, w.n, i, b, chaosPattern(w.off+i))
			}
		}
		if !chaosCheck(data, w.off) {
			t.Fatalf("check at %d+%d refused the pattern", w.off, w.n)
		}
		for _, i := range []int{0, w.n / 2, chaosPeriod - 1 - w.off%chaosPeriod, w.n - 1} {
			if i < 0 || i >= w.n {
				continue
			}
			data[i] ^= 0x40
			if chaosCheck(data, w.off) {
				t.Fatalf("check at %d+%d accepted a wrong byte at %d", w.off, w.n, i)
			}
			data[i] ^= 0x40
		}
	}
}

// TestChaosCountersMatchTypedFields: with a plane on every chaos world, a
// cell's "tcp/retransmits" and "nfs/retries" counters, summed over its
// planes, equal its typed Retransmits and NFSResent. perfbench reads the
// two counters; this makes reading the typed fields instead a rename.
func TestChaosCountersMatchTypedFields(t *testing.T) {
	cfg := &Config{Quick: true, Parallel: 2, Obs: func(tb *Testbed) *obs.Plane {
		return obs.New(float64(tb.Prof.MHz))
	}}
	results, ccs := runCells(cfg, chaosCells(QuickChaosParams()))
	var rtx, resent uint64
	for i, v := range results {
		r := v.(ChaosResult)
		var crtx, cresent uint64
		for _, pl := range ccs[i].Planes() {
			crtx += pl.Metrics.Counter("tcp/retransmits").Value()
			cresent += pl.Metrics.Counter("nfs/retries").Value()
		}
		if crtx != r.Retransmits || cresent != r.NFSResent {
			t.Errorf("%s seed %d: counters tcp/retransmits %d, nfs/retries %d; typed Retransmits %d, NFSResent %d",
				r.Schedule, r.Seed, crtx, cresent, r.Retransmits, r.NFSResent)
		}
		rtx += r.Retransmits
		resent += r.NFSResent
	}
	if rtx == 0 || resent == 0 {
		t.Fatalf("the chaos cells retransmit %d TCP segments and retry %d NFS requests; the check needs both non-zero", rtx, resent)
	}
	t.Logf("%d cells: %d retransmits, %d NFS retries", len(results), rtx, resent)
}
