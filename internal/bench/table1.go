package bench

import (
	"ashs/internal/aegis"
	"ashs/internal/sim"
)

// Table1 is the raw round-trip latency of the base system (Section IV-C):
// a 4-byte message ping-ponged between two hosts.
type Table1 struct {
	InKernelAN2 float64 // us per round trip
	UserAN2     float64
	Ethernet    float64
}

// PaperTable1 is Table I of the paper.
var PaperTable1 = Table1{InKernelAN2: 112, UserAN2: 182, Ethernet: 309}

// table1Cells enumerates Table I's three independent measurements.
func table1Cells(iters int) []Cell {
	return []Cell{
		{"table1/in-kernel", func(cfg *Config) any { return inKernelAN2RT(cfg, iters, nil) }},
		{"table1/user-level", func(cfg *Config) any { return rawPingPong(cfg, false, iters, nil) }},
		{"table1/ethernet", func(cfg *Config) any { return rawPingPong(cfg, true, iters, nil) }},
	}
}

func mergeTable1(vs []any) Table1 {
	return Table1{
		InKernelAN2: vs[0].(float64),
		UserAN2:     vs[1].(float64),
		Ethernet:    vs[2].(float64),
	}
}

// RunTable1 regenerates Table I.
func RunTable1(cfg *Config, iters int) Table1 {
	return mergeTable1(runCells(cfg, table1Cells(iters)))
}

// inKernelAN2RT measures the best in-kernel ping-pong: polled driver
// endpoints replying directly from the kernel. A non-nil o attaches an
// observability plane and records the measurement window for Breakdown.
func inKernelAN2RT(cfg *Config, iters int, o *obsRun) float64 {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	o.attach(tb)
	const vc = 5
	sb, err := tb.A2.BindVC(nil, vc, 8, 4096)
	if err != nil {
		panic(err)
	}
	sb.Handler = aegis.KernelRx(func(mc *aegis.MsgCtx) {
		mc.Send(mc.Src, mc.VC, append([]byte(nil), mc.Data()...))
	})
	cb, err := tb.A1.BindVC(nil, vc, 8, 4096)
	if err != nil {
		panic(err)
	}
	count := 0
	var done sim.Time
	cb.Handler = aegis.KernelRx(func(mc *aegis.MsgCtx) {
		count++
		if count < iters {
			mc.Send(mc.Src, mc.VC, []byte{1, 2, 3, 4})
		} else {
			done = mc.When()
		}
	})
	tb.A1.KernelSend(tb.A2.Addr(), vc, []byte{1, 2, 3, 4})
	tb.run()
	o.window(0, done)
	return tb.Us(done) / float64(iters)
}

// Table renders Table I.
func (t Table1) Table() *Table {
	return &Table{
		Title:   "Table I: raw latency (us per round trip), 4-byte messages",
		Columns: []string{"latency"},
		Format:  "%.0f",
		Rows: []Row{
			{"in-kernel AN2", []float64{t.InKernelAN2}, []float64{PaperTable1.InKernelAN2}},
			{"user-level AN2", []float64{t.UserAN2}, []float64{PaperTable1.UserAN2}},
			{"Ethernet", []float64{t.Ethernet}, []float64{PaperTable1.Ethernet}},
		},
	}
}
