package bench

import (
	"bytes"
	"reflect"
	"testing"

	"ashs/internal/fault"
	"ashs/internal/obs"
)

// runSuite executes the named experiments at the given parallelism with a
// tracing plane on every testbed, returning the rendered outputs and the
// exported trace bytes.
func runSuite(t *testing.T, parallel int, names []string) ([]Output, []byte) {
	t.Helper()
	selected, unknown := FindExperiments(names)
	if len(unknown) > 0 {
		t.Fatalf("unknown experiments: %v", unknown)
	}
	cfg := &Config{Quick: true, Parallel: parallel}
	cfg.Obs = func(tb *Testbed) *obs.Plane {
		return obs.New(float64(tb.Prof.MHz))
	}
	outs := RunExperiments(cfg, selected)
	return outs, obs.WriteTrace(cfg.Planes()...)
}

// sameEngines requires an experiment's schedule counts not to depend on
// the worker count: they are sums over its own cells' worlds.
func sameEngines(t *testing.T, serial, par Output) {
	t.Helper()
	if serial.Engines != par.Engines {
		t.Errorf("%s: engine counts differ:\nserial   %+v\nparallel %+v", serial.Name, serial.Engines, par.Engines)
	}
}

// TestParallelByteIdentical is the golden determinism check: a multi-cell
// slice of the suite rendered at -parallel=4 must match -parallel=1 byte
// for byte, tables, engine counts and exported trace alike.
func TestParallelByteIdentical(t *testing.T) {
	names := []string{"table1", "fig3", "table4", "table5", "sandbox"}
	serialOut, serialTrace := runSuite(t, 1, names)
	parOut, parTrace := runSuite(t, 4, names)
	if len(serialOut) != len(parOut) {
		t.Fatalf("output count differs: %d vs %d", len(serialOut), len(parOut))
	}
	for i := range serialOut {
		if serialOut[i].Name != parOut[i].Name {
			t.Fatalf("output %d name differs: %s vs %s", i, serialOut[i].Name, parOut[i].Name)
		}
		if serialOut[i].Text != parOut[i].Text {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				serialOut[i].Name, serialOut[i].Text, parOut[i].Text)
		}
		sameEngines(t, serialOut[i], parOut[i])
	}
	if !bytes.Equal(serialTrace, parTrace) {
		t.Errorf("trace JSON differs between serial (%d bytes) and parallel (%d bytes)",
			len(serialTrace), len(parTrace))
	}
}

// TestParallelChaosMatchesSerial runs a reduced chaos matrix concurrently
// and serially; every ChaosResult (injected-fault counters included) must
// match field for field. Under -race this also shakes out shared state
// between concurrently built testbeds.
func TestParallelChaosMatchesSerial(t *testing.T) {
	p := ChaosParams{
		Seeds:     []int64{1},
		TCPBytes:  256 << 10,
		NFSBytes:  8 << 10,
		Schedules: fault.Canned()[:3],
	}
	serial := RunChaos(&Config{Parallel: 1}, p)
	par := RunChaos(&Config{Parallel: 4}, p)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel chaos diverged from serial:\nserial:   %+v\nparallel: %+v", serial, par)
	}
	for _, r := range serial {
		if !r.TCPOk || !r.NFSOk {
			t.Errorf("%s/seed%d: transfer failed (tcp=%v nfs=%v)", r.Schedule, r.Seed, r.TCPOk, r.NFSOk)
		}
	}
}

func TestFindExperimentsValidatesNames(t *testing.T) {
	selected, unknown := FindExperiments([]string{"table1", "tabel5", " fig3", "nope"})
	if !reflect.DeepEqual(unknown, []string{"tabel5", "nope"}) {
		t.Fatalf("unknown = %v", unknown)
	}
	got := make([]string, len(selected))
	for i, e := range selected {
		got[i] = e.Name
	}
	if !reflect.DeepEqual(got, []string{"table1", "fig3"}) {
		t.Fatalf("selected = %v", got)
	}

	// Requested order must not matter: the registry order is canonical.
	reordered, _ := FindExperiments([]string{"fig3", "table1"})
	if len(reordered) != 2 || reordered[0].Name != "table1" {
		t.Fatalf("canonical order not preserved: %v", reordered)
	}

	all, unknown := FindExperiments([]string{"all"})
	if len(unknown) != 0 || len(all) != len(Experiments()) {
		t.Fatalf("'all' selected %d of %d", len(all), len(Experiments()))
	}
}

// TestReoptParallelByteIdentical pins the DCG-loop experiment across
// parallelism levels: five cells that each build testbeds, re-optimize
// handlers, and sweep the differential harness must render the same
// table, count the same schedule and export the same trace at -parallel=4
// as serially.
func TestReoptParallelByteIdentical(t *testing.T) {
	serialOut, serialTrace := runSuite(t, 1, []string{"reopt"})
	parOut, parTrace := runSuite(t, 4, []string{"reopt"})
	if len(serialOut) != 1 || len(parOut) != 1 {
		t.Fatalf("output counts: %d vs %d", len(serialOut), len(parOut))
	}
	if serialOut[0].Text != parOut[0].Text {
		t.Errorf("reopt: parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serialOut[0].Text, parOut[0].Text)
	}
	sameEngines(t, serialOut[0], parOut[0])
	if !bytes.Equal(serialTrace, parTrace) {
		t.Errorf("reopt trace JSON differs between serial (%d bytes) and parallel (%d bytes)",
			len(serialTrace), len(parTrace))
	}
}
