package aegis

import (
	"bytes"
	"testing"

	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
)

// rxWorld is one receiving interface of either device with one binding,
// and a raw port that offers it frames. Frames for the binding carry
// rxTag in byte 0 on the Ethernet and circuit rxVC on the AN2; a frame
// built with match=false carries neither.
type rxWorld struct {
	eng *sim.Engine
	sw  *netdev.Switch
	tx  *netdev.Port
	k   *Kernel
	nic *NIC
	b   *Binding
	eth *EthernetIf // nil on the AN2

	offered uint64
}

const (
	rxTag = 0x55
	rxVC  = 7
)

var rxDevices = []string{"an2", "ethernet"}

func newRxWorld(t *testing.T, dev string, nbufs, bufSize int) *rxWorld {
	t.Helper()
	w := &rxWorld{eng: sim.NewEngine()}
	prof := mach.DS5000_240()
	cfg := netdev.EthernetConfig()
	if dev == "an2" {
		cfg = netdev.AN2Config()
	}
	w.sw = netdev.NewSwitch(w.eng, prof, cfg)
	w.tx = w.sw.NewPort()
	w.k = NewKernel("rx", w.eng, prof)
	owner := w.k.Spawn("app", func(*Process) {})
	var err error
	if dev == "an2" {
		a := NewAN2(w.k, w.sw)
		w.nic = &a.NIC
		w.b, err = a.BindVC(owner, rxVC, nbufs, bufSize)
	} else {
		w.eth = NewEthernetPool(w.k, w.sw, nbufs)
		w.nic = &w.eth.NIC
		w.b, err = w.eth.BindFilter(owner, dpfFilter(rxTag))
	}
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// offer puts frame i on the wire at i×200 µs, far enough apart that each
// arrival's ring push has settled before the next admission decision.
func (w *rxWorld) offer(i int, match bool, data []byte) {
	w.offered++
	data = append([]byte(nil), data...)
	w.eng.Schedule(sim.Time(i)*w.sw.Prof.Cycles(200), func() {
		pkt := w.sw.LeaseData(data)
		pkt.Dst, pkt.VC = w.nic.Addr(), rxVC
		if !match {
			pkt.VC = rxVC + 1
			pkt.Bytes()[0] = rxTag + 1
		}
		if err := w.tx.Transmit(pkt); err != nil {
			panic(err)
		}
	})
}

func rxFrame(i int) []byte {
	return []byte{rxTag, byte(i), 0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5}
}

type handlerFunc func(mc *MsgCtx) Disposition

func (f handlerFunc) HandleMsg(mc *MsgCtx) Disposition { return f(mc) }

// replyAnd is a handler body that queues one reply and returns d.
func (w *rxWorld) replyAnd(d Disposition) func(mc *MsgCtx) Disposition {
	return func(mc *MsgCtx) Disposition {
		mc.Send(w.tx.Addr(), rxVC, []byte{1, 2, 3, 4})
		return d
	}
}

// TestReceiveMatrix runs one list of scenarios through an AN2 and an
// Ethernet world: the same RxStats field must move on both devices, every
// offered frame must end in exactly one fate, and sends a stage queued go
// out if it consumed the message and are released if it did not.
func TestReceiveMatrix(t *testing.T) {
	const frames = 5
	inject := func(df DeviceFault) func(*rxWorld) {
		return func(w *rxWorld) {
			w.nic.InjectFault = func(*netdev.PacketBuf) DeviceFault { return df }
		}
	}
	for _, sc := range []struct {
		name    string
		nbufs   int
		noMatch bool
		setup   func(w *rxWorld)
		want    RxStats
		replies uint64 // frames the receiver must have put on the wire
		ring    int    // notifications left on the ring
		free    int    // buffers back in the pool at the end
	}{
		{name: "crc damage", nbufs: 8, free: 8,
			setup: func(w *rxWorld) {
				w.sw.Inject = func(p *netdev.PacketBuf) bool { p.Bytes()[1] ^= 0x10; return true }
			},
			want: RxStats{CRC: frames}},
		{name: "no match", nbufs: 8, free: 8, noMatch: true,
			want: RxStats{NoMatch: frames}},
		{name: "high-water shed", nbufs: 8, free: 6, ring: 2,
			setup: func(w *rxWorld) { w.b.Ring().HighWater = 2 },
			want:  RxStats{Shed: frames - 2, Delivered: 2}},
		{name: "pool exhaustion", nbufs: 3, free: 0, ring: 3,
			want: RxStats{NoBuffer: frames - 3, Delivered: 3}},
		{name: "injected ring drop", nbufs: 8, free: 8,
			setup: inject(DeviceFault{DropRing: true}),
			want:  RxStats{InjectedRing: frames}},
		{name: "injected pool drop", nbufs: 8, free: 8,
			setup: inject(DeviceFault{DropPool: true}),
			want:  RxStats{InjectedPool: frames}},
		{name: "injected truncation", nbufs: 8, free: 8 - frames, ring: frames,
			setup: inject(DeviceFault{TruncateTo: 2}),
			want:  RxStats{Truncated: frames, Delivered: frames}},
		{name: "handler consumes", nbufs: 8, free: 8, replies: frames,
			setup: func(w *rxWorld) { w.b.Handler = handlerFunc(w.replyAnd(DispConsumed)) },
			want:  RxStats{Delivered: frames}},
		{name: "handler aborts, upcall consumes", nbufs: 8, free: 8, replies: frames,
			setup: func(w *rxWorld) {
				w.b.Handler = handlerFunc(w.replyAnd(DispToUser))
				w.b.Upcall = NewUpcall(w.b.Owner, w.replyAnd(DispConsumed))
			},
			want: RxStats{Delivered: frames}},
		{name: "both decline, ring", nbufs: 8, free: 8 - frames, ring: frames,
			setup: func(w *rxWorld) {
				w.b.Handler = handlerFunc(w.replyAnd(DispToUser))
				w.b.Upcall = NewUpcall(w.b.Owner, w.replyAnd(DispToUser))
			},
			want: RxStats{Delivered: frames}},
	} {
		for _, dev := range rxDevices {
			t.Run(sc.name+"/"+dev, func(t *testing.T) {
				w := newRxWorld(t, dev, sc.nbufs, 4096)
				if sc.setup != nil {
					sc.setup(w)
				}
				for i := 0; i < frames; i++ {
					w.offer(i, !sc.noMatch, rxFrame(i))
				}
				w.eng.Run()

				if w.nic.Rx != sc.want {
					t.Errorf("Rx = %+v, want %+v", w.nic.Rx, sc.want)
				}
				if got := w.nic.Rx.Fates(); got != w.offered {
					t.Errorf("fates sum to %d, %d frames offered", got, w.offered)
				}
				// Only a binding that queued, or armed a high watermark,
				// has a ring.
				if hasRing := sc.ring > 0 || sc.want.Shed > 0; (w.b.ring != nil) != hasRing {
					t.Errorf("binding has a ring: %v, want %v", w.b.ring != nil, hasRing)
				}
				if w.b.Ring().Shed != sc.want.Shed {
					t.Errorf("ring Shed = %d, interface Shed = %d", w.b.Ring().Shed, sc.want.Shed)
				}
				if got := w.sw.Sent - w.offered; got != sc.replies {
					t.Errorf("receiver transmitted %d frames, want %d", got, sc.replies)
				}
				if n := w.sw.Pool.InUse(); n != 0 {
					t.Errorf("%d wire leases outstanding: an aborted stage's sends were not released", n)
				}
				if w.b.Ring().Len() != sc.ring || w.b.pool.count != sc.free {
					t.Errorf("ring holds %d, pool has %d free; want %d and %d",
						w.b.Ring().Len(), w.b.pool.count, sc.ring, sc.free)
				}
				for w.b.Ring().Len() > 0 {
					e, _ := w.b.Ring().TryRecv()
					want := rxFrame(int(w.k.Bytes(e.Addr, 2)[1]))
					if sc.want.Truncated > 0 {
						want = want[:2]
					}
					if !bytes.Equal(w.k.Bytes(e.Addr, e.Len), want) {
						t.Errorf("ring entry holds % x, want % x", w.k.Bytes(e.Addr, e.Len), want)
					}
				}
			})
		}
	}
}

// TestFrontHalfOrder states where the two front halves differ in the order
// of their effects — differences the chaos and overload goldens pin.
func TestFrontHalfOrder(t *testing.T) {
	one := func(t *testing.T, dev string, bufSize int, match bool, df DeviceFault, data []byte) *rxWorld {
		w := newRxWorld(t, dev, 4, bufSize)
		w.nic.InjectFault = func(*netdev.PacketBuf) DeviceFault { return df }
		w.offer(0, match, data)
		w.eng.Run()
		return w
	}
	big := append(rxFrame(0), make([]byte, 56)...)

	t.Run("injected ring drop vs classification", func(t *testing.T) {
		// The AN2 board loses the arrival before the circuit is looked up;
		// the Ethernet classifies (and counts the frame) first.
		a := one(t, "an2", 4096, false, DeviceFault{DropRing: true}, rxFrame(0))
		e := one(t, "ethernet", 0, false, DeviceFault{DropRing: true}, rxFrame(0))
		if a.nic.Rx != (RxStats{InjectedRing: 1}) || e.nic.Rx != (RxStats{NoMatch: 1}) {
			t.Errorf("unbound + ring drop: an2 %+v, ethernet %+v", a.nic.Rx, e.nic.Rx)
		}
		e = one(t, "ethernet", 0, true, DeviceFault{DropRing: true}, rxFrame(0))
		if e.nic.Rx != (RxStats{InjectedRing: 1}) || e.eth.RxFrames != 1 || e.eth.DemuxCycles == 0 {
			t.Errorf("ethernet ring drop: %+v, RxFrames %d, DemuxCycles %d; the frame was classified first",
				e.nic.Rx, e.eth.RxFrames, e.eth.DemuxCycles)
		}
	})
	t.Run("truncation vs classification", func(t *testing.T) {
		// The Ethernet cuts the frame before the filters see it, so a cut
		// through the matched field loses the match; the AN2 has already
		// picked circuit and buffer.
		f := append([]byte{0, rxTag}, rxFrame(0)[2:]...)
		w := newRxWorld(t, "ethernet", 4, 0)
		b, err := w.eth.BindFilter(nil, dpf.NewFilter().Eq8(1, rxTag))
		if err != nil {
			t.Fatal(err)
		}
		w.nic.InjectFault = func(*netdev.PacketBuf) DeviceFault { return DeviceFault{TruncateTo: 1} }
		w.offer(0, true, f)
		w.eng.Run()
		if w.nic.Rx != (RxStats{Truncated: 1, NoMatch: 1}) || b.Ring().Len() != 0 {
			t.Errorf("ethernet: %+v", w.nic.Rx)
		}
		a := one(t, "an2", 4096, true, DeviceFault{TruncateTo: 1}, f)
		if a.nic.Rx != (RxStats{Truncated: 1, Delivered: 1}) {
			t.Errorf("an2: %+v", a.nic.Rx)
		}
	})
	t.Run("an2 sizes the frame after truncating, takes the buffer after sizing", func(t *testing.T) {
		w := one(t, "an2", 32, true, DeviceFault{}, big)
		if w.nic.Rx != (RxStats{TooBig: 1}) || w.b.pool.count != 4 {
			t.Errorf("64 bytes into 32-byte buffers: %+v, %d buffers free", w.nic.Rx, w.b.pool.count)
		}
		w = one(t, "an2", 32, true, DeviceFault{TruncateTo: 16}, big)
		if w.nic.Rx != (RxStats{Truncated: 1, Delivered: 1}) {
			t.Errorf("cut to 16 bytes first: %+v", w.nic.Rx)
		}
	})
	t.Run("layout, flush width and the demux charge", func(t *testing.T) {
		for _, dev := range rxDevices {
			w := newRxWorld(t, dev, 4, 4096)
			_, seg := w.b.pool.peek()
			w.k.Cache.Warm(seg.Base, 4*len(big))
			var cost sim.Time
			var striped bool
			w.b.Handler = handlerFunc(func(mc *MsgCtx) Disposition {
				cost, striped = mc.Cost(), mc.Frame().Striped
				return DispConsumed
			})
			w.offer(0, true, big)
			w.eng.Run()

			prof := w.k.Prof
			want := sim.Time(prof.InterruptCycles + prof.DeviceRxService + prof.ASHDispatch)
			flushed, layout := len(big), big
			if dev == "an2" {
				want += sim.Time(prof.DemuxVCCycles)
			} else {
				want += w.eth.DemuxCycles
				flushed *= 2
				layout = make([]byte, 2*len(big))
				Stripe(layout, big)
			}
			if cost != want || striped != (dev == "ethernet") || striped != w.b.Frame(RingEntry{}).Striped {
				t.Errorf("%s: cost at handler entry %d, want %d; striped %v", dev, cost, want, striped)
			}
			if got := w.k.Bytes(seg.Base, len(layout)); !bytes.Equal(got, layout) {
				t.Errorf("%s: buffer holds % x", dev, got)
			}
			line := uint32(prof.LineBytes)
			if w.k.Cache.Resident(seg.Base+uint32(flushed)-line) || !w.k.Cache.Resident(seg.Base+uint32(flushed)) {
				t.Errorf("%s: the driver did not flush exactly %d bytes", dev, flushed)
			}
		}
	})
	t.Run("an in-kernel an2 endpoint still takes the interrupt", func(t *testing.T) {
		w := newRxWorld(t, "an2", 4, 4096)
		var cost sim.Time
		w.b.Handler = KernelRx(func(mc *MsgCtx) { cost = mc.Cost() })
		w.offer(0, true, rxFrame(0))
		w.eng.Run()
		prof := w.k.Prof
		if want := sim.Time(prof.KernelPollCycles + prof.DeviceRxService); cost != want || w.k.Interrupts != 1 {
			t.Errorf("polled path cost %d (want %d), %d interrupts counted (want 1)", cost, want, w.k.Interrupts)
		}
		if w.nic.Rx != (RxStats{Delivered: 1}) || w.b.pool.count != 4 {
			t.Errorf("%+v, %d buffers free", w.nic.Rx, w.b.pool.count)
		}
	})
}

// TestFreeChecksTheIndex: Binding.Free takes its argument from user level.
// An index outside the pool (a doorbell's -1) or a buffer that is not on
// loan (a second free) must be refused and counted — queued, it would
// panic the next arrival or DMA a second frame over a buffer the
// application is still reading.
func TestFreeChecksTheIndex(t *testing.T) {
	const nbufs = 4
	for _, dev := range rxDevices {
		t.Run(dev, func(t *testing.T) {
			w := newRxWorld(t, dev, nbufs, 4096)
			seq := 0
			recv := func() RingEntry {
				w.offer(0, true, rxFrame(seq))
				seq++
				w.eng.Run()
				e, ok := w.b.Ring().TryRecv()
				if !ok {
					t.Fatalf("frame %d was not delivered: %+v", seq-1, w.nic.Rx)
				}
				return e
			}
			first := recv()
			for _, idx := range []int{-1, nbufs, first.BufIndex + nbufs} {
				w.b.Free(idx)
			}
			w.b.Free(first.BufIndex)
			w.b.Free(first.BufIndex)
			if w.nic.Rx.BadFrees != 4 || w.b.pool.count != nbufs {
				t.Fatalf("BadFrees = %d (want 4), %d of %d buffers free", w.nic.Rx.BadFrees, w.b.pool.count, nbufs)
			}

			// 100 more arrivals with nbufs-1 frames held at a time: a bogus
			// index in the FIFO panics, a duplicate one lands a later frame
			// on a buffer still held.
			var held []RingEntry
			check := func(e RingEntry) {
				if got := w.k.Bytes(e.Addr, e.Len); !bytes.Equal(got, rxFrame(int(got[1]))) {
					t.Fatalf("held buffer %d was overwritten: % x", e.BufIndex, got)
				}
				w.b.Free(e.BufIndex)
			}
			for i := 0; i < 100; i++ {
				e := recv()
				for _, h := range held {
					if h.BufIndex == e.BufIndex {
						t.Fatalf("arrival %d landed in buffer %d, still on loan", i, e.BufIndex)
					}
				}
				if held = append(held, e); len(held) == nbufs-1 {
					check(held[0])
					held = held[1:]
				}
			}
			for _, e := range held {
				check(e)
			}
			if w.nic.Rx.BadFrees != 4 || w.b.pool.count != nbufs || w.nic.Rx.Delivered != 101 {
				t.Errorf("after the soak: %+v, %d buffers free", w.nic.Rx, w.b.pool.count)
			}
		})
	}
}

// TestRefusedSendIsCounted: a handler that replies with more than the wire
// carries loses the reply; the loss must show on the switch and the lease
// must go back to the pool.
func TestRefusedSendIsCounted(t *testing.T) {
	for _, dev := range rxDevices {
		t.Run(dev, func(t *testing.T) {
			w := newRxWorld(t, dev, 4, 4096)
			w.b.Handler = handlerFunc(func(mc *MsgCtx) Disposition {
				mc.Send(w.tx.Addr(), rxVC, make([]byte, w.nic.MaxFrame()+1))
				mc.Send(w.sw.NumPorts(), rxVC, []byte{1}) // no such port
				mc.Send(w.tx.Addr(), rxVC, []byte{1})
				return DispConsumed
			})
			w.offer(0, true, rxFrame(0))
			w.eng.Run()
			if w.sw.Refused != 2 || w.sw.Sent != 2 {
				t.Errorf("Refused = %d, Sent = %d; want 2 refused, the request and one reply sent", w.sw.Refused, w.sw.Sent)
			}
			if n := w.sw.Pool.InUse(); n != 0 {
				t.Errorf("%d wire leases leaked", n)
			}
			w.nic.KernelSend(w.tx.Addr(), rxVC, make([]byte, w.nic.MaxFrame()+1))
			if w.sw.Refused != 3 || w.sw.Pool.InUse() != 0 {
				t.Errorf("KernelSend: Refused = %d, %d leases out", w.sw.Refused, w.sw.Pool.InUse())
			}
		})
	}
}
