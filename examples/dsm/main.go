// DSM: the CRL-style distributed shared memory actions the paper cites as
// another ASH consumer — remote writes and remote lock acquisition
// executed entirely by downloaded handlers.
//
// The demo installs three handlers on a "home node": the generic remote
// write (full validation + acknowledgment, for untrusted peers), the
// application-specific trusted write (raw pointer, fewer instructions),
// and a lock handler. A client host exercises them and the program prints
// the per-operation instruction counts the paper's Section V-D discusses.
//
//	go run ./examples/dsm
package main

import (
	"encoding/binary"
	"fmt"

	"ashs"
	"ashs/internal/aegis"
	"ashs/internal/crl"
)

func be(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

func main() {
	w := ashs.NewWorld()
	defer w.Close()

	// Home node state.
	app := w.Host2.Spawn("dsm-home", func(p *ashs.Process) {})
	node := crl.NewNode(w.ASH2, app)
	segID, seg, err := node.AddSegment(8192, "matrix")
	if err != nil {
		panic(err)
	}

	install := func(prog *ashs.Program, vc int, unsafe bool) *ashs.ASH {
		a, err := w.ASH2.Download(app, prog, ashs.ASHOptions{Unsafe: unsafe})
		if err != nil {
			panic(err)
		}
		b, err := w.AN2Host2.BindVC(app, vc, 8, 8192)
		if err != nil {
			panic(err)
		}
		a.Attach(b)
		return a
	}
	generic := install(crl.GenericWriteHandler(node.TableAddr(), crl.MaxSegments, w.AN2Host1.Addr(), 11), 11, false)
	trusted := install(crl.TrustedWriteHandler(), 12, false)
	locks := install(crl.LockHandler(node.LockSeg.Base, 64, w.AN2Host1.Addr(), 13), 13, false)

	// Client endpoint: an in-kernel reply sink so we can print replies.
	replies := map[int][]byte{}
	for _, vc := range []int{11, 13} {
		vc := vc
		cb, err := w.AN2Host1.BindVC(nil, vc, 8, 8192)
		if err != nil {
			panic(err)
		}
		cb.Handler = aegis.KernelRx(func(mc *aegis.MsgCtx) {
			replies[vc] = append([]byte(nil), mc.Data()...)
		})
	}

	// 1. Generic remote write: validated, acknowledged.
	payload := []byte("hello from the generic protocol!")
	msg := be(0x44534d21)
	msg = append(msg, be(1<<16)...)
	msg = append(msg, be(7)...) // request id
	msg = append(msg, be(uint32(segID))...)
	msg = append(msg, be(256)...)
	msg = append(msg, be(uint32(len(payload)))...)
	msg = append(msg, payload...)
	w.AN2Host1.KernelSend(w.AN2Host2.Addr(), 11, msg)
	w.Run()
	fmt.Printf("generic write : %-3d instructions, ack status %d, memory now %q\n",
		generic.LastInsns(), binary.BigEndian.Uint32(replies[11][8:]),
		w.Host2.Bytes(seg.Base+256, len(payload)))

	// 2. Trusted write: raw pointer, no ack — the app-specific protocol.
	payload2 := []byte("trusted peers skip the ceremony!")
	msg2 := append(be(seg.Base+512), be(uint32(len(payload2)))...)
	msg2 = append(msg2, payload2...)
	w.AN2Host1.KernelSend(w.AN2Host2.Addr(), 12, msg2)
	w.Run()
	fmt.Printf("trusted write : %-3d instructions (sandboxed), memory now %q\n",
		trusted.LastInsns(), w.Host2.Bytes(seg.Base+512, len(payload2)))

	// 3. Remote locks: acquire, conflict, release.
	lockMsg := func(idx, op, who uint32) []byte {
		m := append(be(idx), be(op)...)
		return append(m, be(who)...)
	}
	steps := []struct {
		desc string
		msg  []byte
	}{
		{"node A acquires lock 5", lockMsg(5, 1, 0xA)},
		{"node B tries lock 5   ", lockMsg(5, 1, 0xB)},
		{"node A releases lock 5", lockMsg(5, 2, 0xA)},
		{"node B tries again    ", lockMsg(5, 1, 0xB)},
	}
	for _, s := range steps {
		w.AN2Host1.KernelSend(w.AN2Host2.Addr(), 13, s.msg)
		w.Run()
		status := binary.BigEndian.Uint32(replies[13])
		verdict := "granted"
		if status != 0 {
			verdict = "denied"
		}
		fmt.Printf("lock handler  : %s -> %s (%d instructions)\n", s.desc, verdict, locks.LastInsns())
	}
}
