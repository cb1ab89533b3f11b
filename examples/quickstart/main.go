// Quickstart: download a tiny echo ASH into the simulated kernel and
// measure how much faster it answers than a user-level process.
//
// This is the paper's core idea in ~60 lines: the handler runs at message
// arrival inside the kernel, in the application's addressing context, and
// replies without scheduling the application.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"ashs"
)

// echoProgram builds the handler: send the message straight back.
func echoProgram(replyDst, replyVC int) *ashs.Program {
	b := ashs.NewCodeBuilder("echo")
	msg, n := b.Temp(), b.Temp()
	b.Mov(msg, ashs.RArg0) // message address
	b.Mov(n, ashs.RArg1)   // message length
	b.MovI(ashs.RArg0, int32(replyDst))
	b.MovI(ashs.RArg1, int32(replyVC))
	b.Mov(ashs.RArg2, msg)
	b.Mov(ashs.RArg3, n)
	b.Call("ash_send")
	b.MovI(ashs.RRet, 0) // consumed
	b.Ret()
	return b.MustAssemble()
}

func measure(useASH bool) float64 {
	w := ashs.NewWorld()
	defer w.Close()
	const vc, iters = 7, 10

	if useASH {
		// The application downloads the handler; the kernel runs it on
		// every message for this circuit — even while the app sleeps.
		app := w.Host2.Spawn("app", func(p *ashs.Process) {})
		ash, err := w.ASH2.Download(app, echoProgram(w.AN2Host1.Addr(), vc), ashs.ASHOptions{})
		if err != nil {
			panic(err)
		}
		binding, err := w.AN2Host2.BindVC(app, vc, 8, 4096)
		if err != nil {
			panic(err)
		}
		ash.Attach(binding)
	} else {
		// Conventional arrangement: a user-level process polls and echoes.
		w.Host2.Spawn("echo-server", func(p *ashs.Process) {
			ep := mustBind(w, 2, p, vc)
			for i := 0; i < iters; i++ {
				f := ep.Recv(true)
				msg := make([]byte, f.Len())
				f.Bytes(msg, 0, f.Len())
				ep.Release(f)
				ep.Send(ashs.LinkAddr{Port: w.AN2Host1.Addr(), VC: vc}, msg)
			}
		})
	}

	var rt float64
	w.Host1.Spawn("client", func(p *ashs.Process) {
		ep := mustBind(w, 1, p, vc)
		start := p.K.Now()
		for i := 0; i < iters; i++ {
			ep.Send(ashs.LinkAddr{Port: w.AN2Host2.Addr(), VC: vc}, []byte{1, 2, 3, 4})
			f := ep.Recv(true)
			ep.Release(f)
		}
		rt = w.Us(p.K.Now()-start) / iters
	})
	w.Run()
	return rt
}

func mustBind(w *ashs.World, host int, p *ashs.Process, vc int) ashs.LinkEndpoint {
	st := w.IPStackAN2(p, host, vc)
	return st.Ep
}

func main() {
	user := measure(false)
	ash := measure(true)
	fmt.Printf("4-byte echo round trip on the simulated AN2 (40-MHz DECstations):\n")
	fmt.Printf("  user-level process : %6.1f us\n", user)
	fmt.Printf("  downloaded ASH     : %6.1f us\n", ash)
	fmt.Printf("  saved by the ASH   : %6.1f us per round trip\n", user-ash)
}
