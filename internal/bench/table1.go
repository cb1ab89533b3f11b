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
		onWorld("table1/in-kernel", an2Pair, inKernelPingPong{iters}),
		onWorld("table1/user-level", an2Pair, rawPingPong{iters}),
		onWorld("table1/ethernet", ethPair, rawPingPong{iters}),
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
	return mergeTable1(cellResults(cfg, table1Cells(iters)))
}

// inKernelPingPong measures the best in-kernel ping-pong, us per round
// trip: polled driver endpoints replying directly from the kernel.
type inKernelPingPong struct{ iters int }

func (d inKernelPingPong) drive(_ *Config, w *world) any {
	tb, iters := w.tb, d.iters
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
	tb.window = [2]sim.Time{0, done}
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
