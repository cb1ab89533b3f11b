package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
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

// driveFunc adapts a func to the driver interface, for cells that exist
// only in a test: a registered cell holds a value (TestCellsAreValues).
type driveFunc func(cfg *Config, w *world) any

func (f driveFunc) drive(cfg *Config, w *world) any { return f(cfg, w) }

// indexCells returns n world-less cells whose result is their own index,
// with a bit of busywork so parallel workers genuinely interleave.
func indexCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Label: fmt.Sprintf("cell%d", i), drive: driveFunc(func(*Config, *world) any {
			s := 0
			for k := 0; k < 1000*(n-i); k++ {
				s += k
			}
			_ = s
			return i
		})}
	}
	return cells
}

func TestRunCellsMergesInIndexOrder(t *testing.T) {
	for _, parallel := range []int{1, 2, 4, 8, 33} {
		results := cellResults(&Config{Parallel: parallel}, indexCells(32))
		if len(results) != 32 {
			t.Fatalf("parallel=%d: got %d results", parallel, len(results))
		}
		for i, v := range results {
			if v.(int) != i {
				t.Fatalf("parallel=%d: results[%d] = %v", parallel, i, v)
			}
		}
	}
}

func TestParallelism(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	for _, cfg := range []*Config{nil, {}, {Parallel: -1}, {Parallel: -100}} {
		if got := cfg.parallelism(); got != def {
			t.Fatalf("%+v.parallelism() = %d, want one worker per CPU (%d)", cfg, got, def)
		}
	}
	if got := (&Config{Parallel: 7}).parallelism(); got != 7 {
		t.Fatalf("Parallel 7 gives %d workers", got)
	}
}

// panicCells is indexCells with cells 3, 7 and 11 panicking after their
// work, recording in ran which cells were attempted.
func panicCells(ran []bool) []Cell {
	cells := indexCells(len(ran))
	for i := range cells {
		inner := cells[i].drive
		cells[i].drive = driveFunc(func(cfg *Config, w *world) any {
			ran[i] = true
			v := inner.drive(cfg, w)
			if i == 3 || i == 7 || i == 11 {
				panic(fmt.Sprintf("boom %d", i))
			}
			return v
		})
	}
	return cells
}

// runPanic runs cells at parallel workers and returns what runCells
// panicked with.
func runPanic(t *testing.T, parallel int, cells []Cell) string {
	t.Helper()
	var p any
	func() {
		defer func() { p = recover() }()
		cellResults(&Config{Parallel: parallel}, cells)
	}()
	if p == nil {
		t.Fatalf("parallel=%d: no panic propagated", parallel)
	}
	return fmt.Sprint(p)
}

func TestRunCellsReportsLowestIndexedPanic(t *testing.T) {
	ran := make([]bool, 16)
	msg := runPanic(t, 4, panicCells(ran))
	if !strings.Contains(msg, `"cell3"`) || !strings.Contains(msg, "boom 3") {
		t.Fatalf("panic message %q does not report the lowest-indexed failing cell", msg)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("cell %d was never attempted", i)
		}
	}
}

// The serial path names the panicking cell too, with the pool's message.
func TestRunCellsSerialPanicNamesCell(t *testing.T) {
	msg := runPanic(t, 1, []Cell{{Label: "bad", drive: driveFunc(func(*Config, *world) any { panic("x") })}})
	if !strings.Contains(msg, `"bad"`) || !strings.Contains(msg, "x") {
		t.Fatalf("serial panic %q does not name the cell", msg)
	}
	serial := runPanic(t, 1, panicCells(make([]bool, 16)))
	if pool := runPanic(t, 4, panicCells(make([]bool, 16))); serial != pool {
		t.Fatalf("serial panic %q, pool panic %q", serial, pool)
	}
}
