package bench

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"ashs/internal/fault"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/udp"
)

// update rewrites the committed files the two tests below compare against:
//
//	go test ./internal/bench/ -run 'TestKitMatchesParent|TestCellLabelsStable' -update
//
// Do that for testdata/kit_golden.txt only together with a deliberate
// regeneration of ashbench_output.txt: its values are simulated results.
// TestWireIdentity's testdata/wire_golden.txt goes by the same flag and the
// same rule: it is what the protocol libraries put on the wire.
var update = flag.Bool("update", false, "rewrite the testdata/ file a golden test of this package compares against")

// kitCells is every workload the pair kit and the fan-in server carry, on
// both devices and under every configuration that reaches them, at sizes
// that finish in about a second all told.
func kitCells() []Cell {
	var cs []Cell
	cs = append(cs, table1Cells(3)...)
	cs = append(cs, table2Cells(Table2Params{LatIters: 3, UDPTrains: 2, TCPBytes: 64 << 10})...)
	cs = append(cs, table5Cells(3)...)
	cs = append(cs, table6Cells(Table6Params{LatIters: 3, TCPBytes: 64 << 10})...)
	for _, c := range fig4Cells(3, 3) {
		if !strings.HasPrefix(c.Label, "fig4/2-procs/") {
			cs = append(cs, c)
		}
	}
	cs = append(cs, sandboxCells()...)
	cs = append(cs, ablationCells()...)
	cs = append(cs, reoptCells()[:3]...) // hoist, coarsen, chain: the synthetic-message runs
	cs = append(cs, chaosCells(ChaosParams{Seeds: []int64{1}, TCPBytes: 64 << 10, NFSBytes: 8 << 10,
		Schedules: fault.Canned()[:2]})...)
	for _, wl := range scaleWorkloads {
		cs = append(cs, scaleCell(wl.name, 4, 2))
	}
	for i, n := range []int{512, 64, 256} { // udp-echo, tcp-pp, nfs-read: the golden's labels say so
		cs = append(cs, megaWorkloads[i].cell(n))
	}
	return cs
}

// compareGolden checks got against the committed file, or rewrites the file
// under -update. Lines are "label<TAB>value"; a mismatch names the label.
func compareGolden(t *testing.T, path string, got []string) {
	t.Helper()
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(want):
			t.Errorf("%s: extra line %q", path, got[i])
		case i >= len(got):
			t.Errorf("%s: missing line %q", path, want[i])
		case got[i] != want[i]:
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, got[i], want[i])
		}
	}
}

// TestKitMatchesParent pins every kit workload's exact simulated result —
// %v prints the shortest decimal that round-trips a float64 — to the values
// the per-configuration copies produced before they were merged. The full
// ashbench_output.txt comparison catches the same drift in ten seconds and
// names a line; this names the workload.
func TestKitMatchesParent(t *testing.T) {
	var got []string
	for _, c := range kitCells() {
		got = append(got, fmt.Sprintf("%s\t%+v", c.Label, c.Run(&Config{Quick: true})))
	}
	compareGolden(t, "testdata/kit_golden.txt", got)
}

// TestCellLabelsStable pins every registered experiment's cell labels,
// quick and full: cmd/perfbench picks its cells by label, and would
// otherwise find a renamed one missing only when the benchmark runs.
func TestCellLabelsStable(t *testing.T) {
	var got []string
	for _, quick := range []bool{true, false} {
		for _, e := range Experiments() {
			for _, c := range e.Cells(&Config{Quick: quick}) {
				got = append(got, fmt.Sprintf("quick=%v\t%s", quick, c.Label))
			}
		}
	}
	compareGolden(t, "testdata/cell_labels.txt", got)
}

// TestCellsAreValues: a registered cell is data. Every experiment's cells,
// quick and full, enumerate to deeply equal values twice over, and nothing
// reachable from a cell is a func: a closure equals nothing, not even
// itself, and can be neither printed nor decoded.
func TestCellsAreValues(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for _, e := range Experiments() {
			cells := e.Cells(&Config{Quick: quick})
			if again := e.Cells(&Config{Quick: quick}); !reflect.DeepEqual(cells, again) {
				t.Errorf("%s, quick=%v: two enumerations of the cells differ", e.Name, quick)
			}
			for _, c := range cells {
				if path := funcIn(reflect.ValueOf(c), "Cell"); path != "" {
					t.Errorf("%s: %s is a func", c.Label, path)
				}
			}
		}
	}
}

// funcIn is the path to the first func, channel or unsafe pointer
// reachable from v, or "" when there is none.
func funcIn(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return fmt.Sprintf("%s (%s)", path, v.Type())
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return funcIn(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := funcIn(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := funcIn(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := funcIn(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key())); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestRefusedSendPanicsWithLabel: a UDP driver whose send is refused — here
// the resolver has no route to the peer the testbed names — must end the
// cell with its label and the error. When the error was dropped the peer
// waited in Recv for a message that was never sent, and the cell had no
// result to report but reported one.
func TestRefusedSendPanicsWithLabel(t *testing.T) {
	nowhere := ip.V4(10, 99, 0, 1)
	cases := []struct {
		label string
		run   func(tb *Testbed, label string) any
	}{
		{"table2/test/udp-lat", func(tb *Testbed, label string) any {
			tb.IP2 = nowhere // the client's request
			return udpPingPong{label, udp.Options{}, 3}.drive(nil, tb.world)
		}},
		{"table2/test/udp-tput", func(tb *Testbed, label string) any {
			tb.IP1 = nowhere // the server's acknowledgment of a train
			return udpTrains{label, udp.Options{}, EthernetUDPPayload, 2}.drive(nil, tb.world)
		}},
	}
	for _, c := range cases {
		for _, eth := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/eth=%v", c.label, eth), func(t *testing.T) {
				s := an2Pair
				if eth {
					s = arpPair
				}
				tb := build(nil, s).tb
				defer tb.Close()
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, c.label+": ") || !strings.Contains(msg, nowhere.String()) {
						t.Errorf("panic %q, want the cell label and the resolver's error", msg)
					}
				}()
				t.Errorf("cell returned %v", c.run(tb, c.label))
			})
		}
	}
}
