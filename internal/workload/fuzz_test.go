package workload

import (
	"math"
	"strings"
	"testing"
)

// FuzzTraceParse hammers the trace decoder with arbitrary bytes. Parse
// must never panic, and anything it accepts must satisfy the codec
// invariants and round-trip bit-exactly through Encode — the property
// that makes stored traces a safe interchange format.
func FuzzTraceParse(f *testing.F) {
	// Seed corpus: every generator's output, the empty and minimal traces
	// and one at every codec limit, with a conversation that is not its
	// client's (the committed files under testdata/fuzz add mutations).
	spec := Spec{Clients: 4, Events: 32, MeanGapUs: 50, Size: 128, MaxSize: 2048}
	for _, g := range Generators() {
		f.Add(g.Gen(1, spec).Encode())
	}
	f.Add((&Trace{}).Encode())
	f.Add((&Trace{Name: "x", Events: []Event{{AtUs: 0, Client: 0, Size: 1}}}).Encode())
	f.Add([]byte("ASHW"))
	f.Add((&Trace{Name: strings.Repeat("n", MaxName), Events: []Event{
		{AtUs: 0, Client: MaxClient - 1, Size: 1, Conv: 0},
		{AtUs: MaxAtUs, Client: 0, Size: MaxSize, Conv: math.MaxUint32},
	}}).Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(data)
		if err != nil {
			return
		}
		if err := tr.validate(); err != nil {
			t.Fatalf("accepted trace fails validation: %v", err)
		}
		enc := tr.Encode()
		tr2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of re-encoding failed: %v", err)
		}
		if tr2.Name != tr.Name || len(tr2.Events) != len(tr.Events) {
			t.Fatalf("round trip changed shape")
		}
		for i := range tr.Events {
			if tr.Events[i] != tr2.Events[i] {
				t.Fatalf("round trip changed event %d", i)
			}
		}
	})
}
