package ip

import (
	"math/rand"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// fragWorld builds one host with a stack whose frames we feed directly.
type fragWorld struct {
	eng *sim.Engine
	k   *aegis.Kernel
	st  *Stack
	p   *aegis.Process
}

// runFragWorld spawns a process owning a stack and runs body inside it
// (stack operations must run in the owning process's context).
func runFragWorld(t *testing.T, body func(w *fragWorld)) {
	t.Helper()
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k := aegis.NewKernel("h", eng, prof)
	iface := aegis.NewAN2(k, sw)
	w := &fragWorld{eng: eng, k: k}
	k.Spawn("feeder", func(p *aegis.Process) {
		w.p = p
		ep, err := link.BindAN2(iface, p, 3, 16, 16384)
		if err != nil {
			t.Error(err)
			return
		}
		w.st = NewStack(ep, V4(10, 0, 0, 9), StaticResolver{})
		body(w)
	})
	eng.Run()
}

// mkFragment builds a raw IP fragment datagram in a fresh segment and
// returns a contiguous frame over it.
func (w *fragWorld) mkFragment(id uint16, off int, mf bool, payload []byte) aegis.Frame {
	h := Header{
		TotalLen: uint16(HeaderLen + len(payload)), ID: id, TTL: 64,
		Proto: ProtoUDP, Src: V4(10, 0, 0, 1), Dst: V4(10, 0, 0, 9),
		MF: mf, FragOff: off,
	}
	buf := h.Marshal(nil)
	buf = append(buf, payload...)
	seg := w.p.AS.MustAlloc(len(buf)+16, "frag")
	copy(w.k.Bytes(seg.Base, len(buf)), buf)
	return aegis.ContiguousFrame(w.k.Mem, seg.Base, len(buf))
}

func TestReassemblyOutOfOrder(t *testing.T) {
	payload := make([]byte, 6000)
	rand.New(rand.NewSource(3)).Read(payload)

	var got []byte
	runFragWorld(t, func(w *fragWorld) {
		// Three fragments delivered in scrambled order.
		frags := [][3]int{ // {off, end, mf}
			{4000, 6000, 0},
			{0, 2000, 1},
			{2000, 4000, 1},
		}
		for _, f := range frags {
			mf := f[2] == 1
			frame := w.mkFragment(77, f[0], mf, payload[f[0]:f[1]])
			d, ok, err := w.st.Input(frame)
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				buf := make([]byte, d.PayloadLen())
				d.Frame.Bytes(buf, d.Off, d.PayloadLen())
				got = buf
				w.st.Release(d)
			}
		}
	})
	if len(got) != len(payload) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("reassembly mismatch at %d", i)
		}
	}
}

func TestReassemblyDuplicateFragments(t *testing.T) {
	payload := make([]byte, 4000)
	rand.New(rand.NewSource(4)).Read(payload)
	var got []byte
	runFragWorld(t, func(w *fragWorld) {
		feed := func(off, end int, mf bool) bool {
			frame := w.mkFragment(5, off, mf, payload[off:end])
			d, ok, err := w.st.Input(frame)
			if err != nil {
				t.Error(err)
				return false
			}
			if ok {
				buf := make([]byte, d.PayloadLen())
				d.Frame.Bytes(buf, d.Off, d.PayloadLen())
				got = buf
				w.st.Release(d)
			}
			return ok
		}
		feed(0, 2000, true)
		feed(0, 2000, true) // duplicate of the first fragment
		feed(2000, 4000, false)
	})
	if len(got) != len(payload) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestReassemblySlotExhaustionDropsNotCorrupts(t *testing.T) {
	runFragWorld(t, func(w *fragWorld) {
		// Open more concurrent reassemblies than there are slots; none
		// complete. The extra ones are dropped, nothing crashes.
		for id := 0; id < ReasmSlots+3; id++ {
			frame := w.mkFragment(uint16(100+id), 0, true, make([]byte, 512))
			if _, ok, err := w.st.Input(frame); ok || err != nil {
				t.Errorf("incomplete fragment returned ok=%v err=%v", ok, err)
			}
		}
	})
}

func TestReassemblyTimeoutReclaimsSlots(t *testing.T) {
	completed := false
	var timeouts uint64
	runFragWorld(t, func(w *fragWorld) {
		// Fill every slot with half-done reassemblies.
		for id := 0; id < ReasmSlots; id++ {
			frame := w.mkFragment(uint16(200+id), 0, true, make([]byte, 512))
			_, _, _ = w.st.Input(frame)
		}
		// Let them expire (2 simulated seconds).
		w.p.Compute(w.k.Prof.Cycles(3_000_000))
		// A fresh reassembly must find a slot and complete.
		payload := make([]byte, 2000)
		frame := w.mkFragment(999, 0, true, payload[:1000])
		_, _, _ = w.st.Input(frame)
		frame = w.mkFragment(999, 1000, false, payload[1000:])
		_, ok, err := w.st.Input(frame)
		if err != nil {
			t.Error(err)
			return
		}
		completed = ok
		timeouts = w.st.ReasmTimeouts
	})
	if !completed {
		t.Fatal("post-timeout reassembly did not complete")
	}
	if timeouts == 0 {
		t.Fatal("no timeouts recorded")
	}
}
