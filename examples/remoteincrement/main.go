// Remote increment: the paper's Table V / Fig. 4 active message as a
// runnable program — remote computation executed by a downloaded handler
// while the owning application is busy doing something else entirely.
//
// The serving host runs compute-bound processes; the handler still answers
// every increment at interrupt time, so the round trip stays flat as load
// grows, while the user-level server's latency is at the mercy of the
// scheduler.
//
//	go run ./examples/remoteincrement
package main

import (
	"fmt"

	"ashs"
	"ashs/internal/crl"
	"ashs/internal/proto/link"
	"ashs/internal/vcode"
)

const vc = 9

func main() {
	fmt.Println("remote-increment round trip (us) vs compute-bound processes on the server")
	fmt.Printf("%8s  %12s  %12s\n", "procs", "ASH", "user-level")
	for _, n := range []int{1, 2, 4, 8} {
		fmt.Printf("%8d  %12.0f  %12.0f\n", n, measure(n, true), measure(n, false))
	}
	fmt.Println("\n(the ASH line is flat: handlers decouple latency-critical replies")
	fmt.Println(" from process scheduling — Section V-C)")
}

func measure(nprocs int, useASH bool) float64 {
	w := ashs.NewWorld()
	defer w.Close()
	const iters, warmup = 8, 2

	for i := 1; i < nprocs; i++ {
		w.Host2.Spawn(fmt.Sprintf("compute-%d", i), func(p *ashs.Process) {
			p.SpinForever()
		})
	}

	if useASH {
		app := w.Host2.Spawn("dsm-app", func(p *ashs.Process) {})
		node := crl.NewNode(w.ASH2, app)
		prog := crl.IncrementHandler(node.CounterSeg.Base, w.AN2Host1.Addr(), vc)
		ash, err := w.ASH2.Download(app, prog, ashs.ASHOptions{})
		if err != nil {
			panic(err)
		}
		b, err := w.AN2Host2.BindVC(app, vc, 8, 4096)
		if err != nil {
			panic(err)
		}
		ash.Attach(b)
	} else {
		w.Host2.Spawn("server", func(p *ashs.Process) {
			ep, err := link.BindAN2(w.AN2Host2, p, vc, 8, 4096)
			if err != nil {
				panic(err)
			}
			counter := p.AS.MustAlloc(64, "counter")
			for i := 0; i < warmup+iters; i++ {
				f := ep.Recv(false)
				v, _ := vcode.Load32(p.AS, counter.Base)
				_ = vcode.Store32(p.AS, counter.Base, v+f.U32(0))
				reply := make([]byte, 4)
				ep.Release(f)
				ep.Send(ashs.LinkAddr{Port: f.Entry.Src, VC: vc}, reply)
			}
		})
	}

	var rt float64
	done := false
	w.Host1.Spawn("client", func(p *ashs.Process) {
		ep, err := link.BindAN2(w.AN2Host1, p, vc, 8, 4096)
		if err != nil {
			panic(err)
		}
		var start ashs.Time
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				start = p.K.Now()
			}
			for {
				ep.Send(ashs.LinkAddr{Port: w.AN2Host2.Addr(), VC: vc}, []byte{0, 0, 0, 1})
				f, ok := ep.RecvUntil(true, p.K.Now()+w.Prof.Cycles(400_000))
				if ok {
					ep.Release(f)
					break
				}
			}
		}
		rt = w.Us(p.K.Now()-start) / iters
		done = true
	})
	for !done {
		w.RunFor(100_000)
	}
	return rt
}
