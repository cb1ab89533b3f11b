package bench

import (
	"reflect"
	"strings"
	"testing"
)

// megaWL finds a row of the megascale table by name.
func megaWL(t *testing.T, name string) *megaWorkload {
	t.Helper()
	for _, wl := range megaWorkloads {
		if wl.name == name {
			return wl
		}
	}
	t.Fatalf("no megascale workload %q", name)
	return nil
}

// TestMegascaleSubLinearDemux is the acceptance check on the flyweight
// sweep's headline claim: multiplying the installed filter count 64x
// must leave the server's per-message demux cost essentially flat (the
// trie deepens by zero levels; the walk never touches the width).
func TestMegascaleSubLinearDemux(t *testing.T) {
	cfg := &Config{Quick: true}
	wl := megaWL(t, "udp-echo")
	small, big := wl.cell(1024).Run(cfg).(MegaResult), wl.cell(65536).Run(cfg).(MegaResult)

	if small.Msgs == 0 || big.Msgs == 0 {
		t.Fatalf("no completed operations: small=%d big=%d", small.Msgs, big.Msgs)
	}
	if small.Filters != 1024 || big.Filters != 65536 {
		t.Fatalf("filter counts: small=%d big=%d", small.Filters, big.Filters)
	}
	if small.TrieDepth != 3 || big.TrieDepth != 3 {
		t.Fatalf("trie depth grew with N: small=%d big=%d (want 3)", small.TrieDepth, big.TrieDepth)
	}
	if small.DemuxPerMsg <= 0 {
		t.Fatalf("no demux cost measured: %+v", small)
	}
	// 64x the filters, at most 2x the per-message demux cycles — in
	// practice they are identical, this bound just leaves slack for
	// cost-model tweaks.
	if big.DemuxPerMsg > 2*small.DemuxPerMsg {
		t.Fatalf("demux cost is not sub-linear: %.1f cyc/msg at N=1k vs %.1f at N=64k",
			small.DemuxPerMsg, big.DemuxPerMsg)
	}
	if big.CycPerMsg > 2*small.CycPerMsg {
		t.Fatalf("kernel receive cost is not sub-linear: %.1f vs %.1f cyc/msg",
			small.CycPerMsg, big.CycPerMsg)
	}
}

// TestMegascaleWorkloadsComplete runs a small cell of each workload and
// checks operation accounting end to end: every open-loop arrival either
// completes or (NFS under incast sheds) exhausts its retry budget —
// nothing is silently lost.
func TestMegascaleWorkloadsComplete(t *testing.T) {
	cfg := &Config{Quick: true}

	udp := megaWL(t, "udp-echo").cell(1024).Run(cfg).(MegaResult)
	wantUDP := uint64(megaWL(t, "udp-echo").traceEvents(cfg, 1024) + megaWaves*1024)
	if udp.Failures != 0 || udp.Msgs != wantUDP {
		t.Errorf("udp-echo: %d/%d ops completed, %d failed", udp.Msgs, wantUDP, udp.Failures)
	}

	tcp := megaWL(t, "tcp-pp").cell(128).Run(cfg).(MegaResult)
	wantTCP := uint64(megaWL(t, "tcp-pp").traceEvents(cfg, 128) + megaWaves*128)
	if tcp.Failures != 0 || tcp.Msgs != wantTCP {
		t.Errorf("tcp-pp: %d/%d ops completed, %d failed", tcp.Msgs, wantTCP, tcp.Failures)
	}
	if tcp.Conns == 0 || tcp.Spread < 1 {
		t.Errorf("tcp-pp: no connection-table peak recorded: %+v", tcp)
	}

	nfs := megaWL(t, "nfs-read").cell(512).Run(cfg).(MegaResult)
	wantNFS := uint64(megaWL(t, "nfs-read").traceEvents(cfg, 512) + megaWaves*512)
	if nfs.Msgs+nfs.Failures != wantNFS {
		t.Errorf("nfs-read: %d completed + %d failed != %d arrivals", nfs.Msgs, nfs.Failures, wantNFS)
	}
	if nfs.Sheds == 0 || nfs.Retries == 0 {
		t.Errorf("nfs-read: incast never engaged the shed/retry plane: sheds=%d retries=%d",
			nfs.Sheds, nfs.Retries)
	}
}

// TestMegascaleParallelByteIdentical re-runs a mixed slice of cells at
// -parallel=4: results (and therefore rendered bytes) must match the
// serial run field for field.
func TestMegascaleParallelByteIdentical(t *testing.T) {
	cells := []Cell{megaWL(t, "udp-echo").cell(512), megaWL(t, "tcp-pp").cell(128), megaWL(t, "nfs-read").cell(256)}
	serial := cellResults(&Config{Quick: true, Parallel: 1}, cells)
	par := cellResults(&Config{Quick: true, Parallel: 4}, cells)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel results differ from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

// TestMegascaleRenderShape checks the table layout against the quick-mode
// cell enumeration without running the sweep.
func TestMegascaleRenderShape(t *testing.T) {
	cfg := &Config{Quick: true}
	var vs []any
	for _, wl := range megaWorkloads {
		for _, n := range sized(cfg, wl.quick, wl.full) {
			vs = append(vs, MegaResult{Workload: wl.name, N: n, Filters: n, TrieDepth: 3})
		}
	}
	if len(vs) != len(megascaleCells(cfg)) {
		t.Fatalf("fabricated %d results for %d cells", len(vs), len(megascaleCells(cfg)))
	}
	out := renderMegascale(cfg, vs)
	for _, want := range []string{"Megascale:", "udp-echo", "tcp-pp", "nfs-read", "demux/msg", "spread", "sheds"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
