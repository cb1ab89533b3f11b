package bench

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"ashs/internal/aegis"
	"ashs/internal/alloctest"
	"ashs/internal/dpf"
	"ashs/internal/flyweight"
	"ashs/internal/netdev"
	"ashs/internal/proto/ip"
	"ashs/internal/workload"
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

// megaHeapAllocs runs wl's n-endpoint cell over a trace of events arrivals
// and returns the bytes it allocated on the Go heap.
func megaHeapAllocs(wl *megaWorkload, n, events int) uint64 {
	cfg := &Config{}
	return alloctest.Bytes(nil, func() {
		inWorld(cfg, *wl.cell(n).spec, func(w *world) MegaResult { return wl.run(cfg, w, n, events) })
	})
}

// TestMegascaleAllocFlatInMessages: a megascale cell allocates what it
// keeps, not what it sends. Doubling the open-loop trace of each cell at
// N=1024 may grow the heap allocated by the longer trace slice itself and
// nothing per message: operations, frames, segments, retry state,
// reply-wait timers, the trace pump and the connection table's peak
// snapshot are all recycled or static.
func TestMegascaleAllocFlatInMessages(t *testing.T) {
	const n = 1024
	for _, name := range []string{"udp-echo", "tcp-pp", "nfs-read"} {
		wl := megaWL(t, name)
		e := wl.traceEvents(&Config{}, n)
		once, twice := megaHeapAllocs(wl, n, e), megaHeapAllocs(wl, n, 2*e)
		bound := uint64(e)*uint64(unsafe.Sizeof(workload.Event{})) + 64<<10
		t.Logf("%s N=%d: %d arrivals allocate %d B, %d allocate %d B", name, n, e, once, 2*e, twice)
		if twice > once+bound {
			t.Errorf("%s N=%d: %d arrivals allocate %d B, %d allocate %d B: +%d B, want at most +%d B (the trace slice)",
				name, n, e, once, 2*e, twice, twice-once, bound)
		}
	}
}

// TestMegascaleFootprints pins the per-filter and per-endpoint sizes the
// megascale cells multiply by up to 10^6 and logs each record on a line of
// its own: what a server filter costs (262 144 in mega-setup), an entry in
// the interface's FilterID → binding table plus the DPF storage its filter
// takes, with one binding for the whole set; then a flyweight endpoint and
// its switch port.
func TestMegascaleFootprints(t *testing.T) {
	const n = 1024
	e := dpf.NewEngine()
	f := megaSourceFilter(ip.Addr{})
	if _, err := e.InsertBatch(n, func(i int, g *dpf.Filter) {
		f.Atoms[len(f.Atoms)-1].Value = uint32(i)
		g.Atoms = f.Atoms
	}); err != nil {
		t.Fatal(err)
	}
	binding := unsafe.Sizeof(aegis.Binding{})
	ep, port := unsafe.Sizeof(flyweight.Endpoint{}), unsafe.Sizeof(netdev.Port{})
	t.Logf("server, per filter: binding table entry %d B (one aegis.Binding of %d B per set)",
		unsafe.Sizeof(uint32(0)), binding)
	dpfBytes := e.Census().Bytes / n
	t.Logf("server, per filter: DPF storage %d B (udp-echo, N=%d)", dpfBytes, n)
	t.Logf("client, per endpoint: flyweight.Endpoint %d B", ep)
	t.Logf("client, per endpoint: netdev.Port %d B", port)
	t.Logf("client, per endpoint: B/ep column %d B", ep+port)
	if binding > 56 {
		t.Errorf("aegis.Binding is %d B, want at most 56", binding)
	}
	// An 8-byte id record, a node, two table slots and the filter's three
	// 4-byte values; the shape it shares with the others is a few hundred
	// bytes for the whole set.
	if dpfBytes > 48 {
		t.Errorf("DPF storage is %d B per udp-echo filter, want at most 48", dpfBytes)
	}
	if ep != 120 || port != 32 {
		t.Errorf("flyweight.Endpoint is %d B and netdev.Port %d B, want 120 and 32: "+
			"their sum is the B/ep column of ashbench_output.txt (152, 200 with a tcp.FlyConn)", ep, port)
	}
}

// TestMegascaleRingsOnlyWhereQueued: a binding gets its notification ring
// when a message first queues on it. Every udp-echo message is consumed
// by the echo handler in the interrupt path, so the one binding all the
// N=1024 cell's filters share has none, and sharing it changes no
// admission decision (admission reads a binding only for its ring); the
// nfs-read cell's one socket queues, so it has one.
func TestMegascaleRingsOnlyWhereQueued(t *testing.T) {
	const n = 1024
	cfg := &Config{Quick: true}
	for _, c := range []struct {
		name string
		want int
	}{{"udp-echo", 0}, {"nfs-read", 1}} {
		name, want := c.name, c.want
		wl := megaWL(t, name)
		rings := inWorld(cfg, *wl.cell(n).spec, func(w *world) int {
			r := wl.run(cfg, w, n, wl.traceEvents(cfg, n))
			if r.Msgs == 0 {
				t.Errorf("%s N=%d: no operation completed", name, n)
			}
			return w.srv().nic.Rings()
		})
		if rings != want {
			t.Errorf("%s N=%d: the server made %d rings, want %d", name, n, rings, want)
		}
	}
}
