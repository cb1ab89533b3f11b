package bench

import (
	"fmt"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// Fig3Point is one point of Fig. 3: user-level AN2 throughput at a packet
// size.
type Fig3Point struct {
	Size int
	MBps float64
}

// Fig3 is the throughput-vs-packet-size series.
type Fig3 struct {
	Points []Fig3Point
}

// PaperFig3Max is the paper's reading at 4-KB packets (16.11 MB/s toward
// a 16.8 MB/s link ceiling).
const PaperFig3Max = 16.11

// Fig3Sizes are the packet sizes swept.
var Fig3Sizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// fig3Cells enumerates one cell per packet size.
func fig3Cells(pktsPerSize int) []Cell {
	cells := make([]Cell, len(Fig3Sizes))
	for i, size := range Fig3Sizes {
		size := size
		cells[i] = Cell{fmt.Sprintf("fig3/%dB", size), func(cfg *Config) any {
			return fig3Throughput(cfg, size, pktsPerSize)
		}}
	}
	return cells
}

func mergeFig3(vs []any) Fig3 {
	var out Fig3
	for i, size := range Fig3Sizes {
		out.Points = append(out.Points, Fig3Point{size, vs[i].(float64)})
	}
	return out
}

// RunFig3 regenerates Fig. 3: a large train of packets of each size sent
// from user level, throughput measured at the receiver.
func RunFig3(cfg *Config, pktsPerSize int) Fig3 {
	return mergeFig3(runCells(cfg, fig3Cells(pktsPerSize)))
}

func fig3Throughput(cfg *Config, size, count int) float64 {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	const vc = 5
	var first, last sim.Time
	got := 0
	tb.K2.Spawn("sink", func(p *aegis.Process) {
		ep, err := link.BindAN2(tb.A2, p, vc, 64, 8192)
		if err != nil {
			panic(err)
		}
		for got < count {
			f := ep.Recv(true)
			if got == 0 {
				first = p.K.Now()
			}
			got++
			last = p.K.Now()
			ep.Release(f)
		}
	})
	tb.K1.Spawn("source", func(p *aegis.Process) {
		ep, err := link.BindAN2(tb.A1, p, vc, 8, 8192)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, size)
		for i := 0; i < count; i++ {
			ep.Send(link.Addr{Port: tb.A2.Addr(), VC: vc}, buf)
		}
	})
	tb.run()
	if got < 2 {
		return 0
	}
	return tb.Prof.MBps((got-1)*size, last-first)
}

// Render draws the series as a text chart.
func (f Fig3) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 3: user-level AN2 throughput vs packet size\n")
	b.WriteString("  (paper: 16.11 MB/s at 4 KB; 16.8 MB/s link ceiling)\n")
	maxv := 17.0
	for _, pt := range f.Points {
		bar := int(pt.MBps / maxv * 50)
		if bar < 0 {
			bar = 0
		}
		fmt.Fprintf(&b, "  %5d B  %6.2f MB/s  |%s\n", pt.Size, pt.MBps, strings.Repeat("#", bar))
	}
	return b.String()
}
