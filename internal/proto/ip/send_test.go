package ip

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// sendWorld is two Ethernet hosts: 14 bytes of link header in front of every
// datagram and a 1500-byte MTU, so fragment edges are cheap to reach.
type sendWorld struct {
	eng    *sim.Engine
	sw     *netdev.Switch
	k1, k2 *aegis.Kernel
	e1, e2 *aegis.EthernetIf
	wire   [][]byte // every frame as transmitted
}

const testProto = 99

func newSendWorld() *sendWorld {
	eng, prof := sim.NewEngine(), mach.DS5000_240()
	w := &sendWorld{eng: eng, sw: netdev.NewSwitch(eng, prof, netdev.EthernetConfig()),
		k1: aegis.NewKernel("h1", eng, prof), k2: aegis.NewKernel("h2", eng, prof)}
	w.e1, w.e2 = aegis.NewEthernet(w.k1, w.sw), aegis.NewEthernet(w.k2, w.sw)
	w.sw.Inject = func(pkt *netdev.PacketBuf) bool {
		w.wire = append(w.wire, append([]byte(nil), pkt.Bytes()...))
		return true
	}
	return w
}

// stack binds every testProto datagram addressed to the host to p (no port:
// a later fragment carries none) and builds the stack a harness would.
func (w *sendWorld) stack(p *aegis.Process, e *aegis.EthernetIf) *Stack {
	local := HostAddr(e.Addr())
	ep, err := link.BindEthernet(e, p, dpf.NewFilter().Eq16(12, ether.TypeIPv4).Eq8(ether.HeaderLen+9, testProto).
		Eq8(ether.HeaderLen+19, local[3]))
	if err != nil {
		panic(err)
	}
	st := NewStack(ep, local, StaticResolver{
		HostAddr(w.e1.Addr()): {Port: w.e1.Addr()}, HostAddr(w.e2.Addr()): {Port: w.e2.Addr()}})
	st.LinkHdrLen = ether.HeaderLen
	st.PrependLink = func(dst link.Addr, b []byte) []byte {
		eh := ether.Header{Dst: ether.PortMAC(dst.Port), Src: ether.PortMAC(e.Addr()), Type: ether.TypeIPv4}
		return eh.Marshal(b)
	}
	return st
}

// pattern is n bytes that differ from their neighbours and from the same
// offset under another salt.
func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i>>8) ^ salt
	}
	return b
}

// TestGatherSendEdges: whatever way hdr‖payload is cut — either part empty,
// the boundary inside a fragment, on its 8-byte-aligned edge, a datagram of
// exactly the MTU or one byte more — the receiver reassembles exactly the
// concatenation, the wire carries the expected number of frames, and the
// stack's transmit frame never outgrows one link frame.
func TestGatherSendEdges(t *testing.T) {
	const mtu, step = 1500, 1480 // fragment data is 8-byte aligned: (1500-20) &^ 7
	for _, c := range []struct {
		name       string
		hdr, pay   int
		wantFrames int
	}{
		{"both empty", 0, 0, 1},
		{"hdr empty", 0, 100, 1},
		{"payload empty", 8, 0, 1},
		{"exactly MTU", 8, mtu - HeaderLen - 8, 1},
		{"MTU plus one", 8, mtu - HeaderLen - 8 + 1, 2},
		{"boundary inside first fragment", 20, 3000, 3},
		{"boundary on the fragment edge", step, 500, 2},
		{"boundary one short of the edge", step - 1, 500, 2},
		{"boundary one past the edge", step + 1, 500, 2},
		{"boundary inside second fragment", 2000, 2000, 3},
		{"hdr alone fragments", 2 * step, 0, 2},
		{"payload alone fragments", 0, 2*step + 1, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newSendWorld()
			hdr, pay := pattern(c.hdr, 0x00), pattern(c.pay, 0xa5)
			want := append(append([]byte(nil), hdr...), pay...)
			var got []byte
			w.k2.Spawn("rx", func(p *aegis.Process) {
				st := w.stack(p, w.e2)
				d, err := st.Recv(false)
				if err != nil {
					t.Error(err)
					return
				}
				got = make([]byte, d.PayloadLen())
				d.Frame.Bytes(got, d.Off, len(got))
				st.Release(d)
			})
			var st *Stack
			w.k1.Spawn("tx", func(p *aegis.Process) {
				st = w.stack(p, w.e1)
				if err := st.Send(testProto, HostAddr(w.e2.Addr()), hdr, pay); err != nil {
					t.Error(err)
				}
			})
			w.eng.Run()
			if !bytes.Equal(got, want) {
				t.Errorf("reassembled %d bytes, want the %d of hdr‖payload (first difference at %d)",
					len(got), len(want), firstDiff(got, want))
			}
			if len(w.wire) != c.wantFrames {
				t.Errorf("%d frames on the wire, want %d", len(w.wire), c.wantFrames)
			}
			for i, f := range w.wire {
				if len(f) > ether.HeaderLen+mtu {
					t.Errorf("frame %d is %d bytes, over the link's %d", i, len(f), ether.HeaderLen+mtu)
				}
			}
			if c := cap(st.frame); c > ether.HeaderLen+mtu {
				t.Errorf("transmit frame grew to %d bytes, past LinkHdrLen+MTU", c)
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSendCapturesPayloadBeforeItBlocks: the bytes that reach the wire are
// the payload as it was when Send was called. Something that runs while the
// sender is charged — here an event that scribbles over the lent payload,
// in the world a handler vectoring a message into the same buffer — must not
// change them, whether it lands in Send's own header-construction charge or
// in the link's system call.
func TestSendCapturesPayloadBeforeItBlocks(t *testing.T) {
	for _, c := range []struct {
		name  string
		after sim.Time // cycles after Send is called
	}{
		{"during the IP build charge", 1},
		{"during the system call", buildCycles + 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newSendWorld()
			const size = 1000
			orig := pattern(size, 0x3c)
			w.k1.Spawn("tx", func(p *aegis.Process) {
				st := w.stack(p, w.e1)
				seg := p.AS.MustAlloc(size, "payload")
				lent := p.AS.MustBytes(seg.Base, size)
				copy(lent, orig)
				w.eng.Schedule(c.after, func() {
					for i := range lent {
						lent[i] = 0xee
					}
				})
				if err := st.Send(testProto, HostAddr(w.e2.Addr()), []byte{1, 2, 3, 4}, lent); err != nil {
					t.Error(err)
				}
				if lent[0] != 0xee {
					t.Error("the scribbling event never ran while Send was blocked")
				}
			})
			w.eng.Run()
			if len(w.wire) != 1 {
				t.Fatalf("%d frames on the wire, want 1", len(w.wire))
			}
			if got := w.wire[0][ether.HeaderLen+HeaderLen+4:]; !bytes.Equal(got, orig) {
				t.Errorf("the wire carries bytes written after Send was called (first at %d)", firstDiff(got, orig))
			}
		})
	}
}

// TestSendReentryPanicsWithOwner: a stack is its owner's alone, and handlers
// send through MsgCtx.Send. One that called the stack instead — here an event
// that fires during the owner's system call, as a handler would — would
// compose over the frame that system call is about to copy; it must be
// stopped with the owner's name, and nothing of its datagram sent.
func TestSendReentryPanicsWithOwner(t *testing.T) {
	w := newSendWorld()
	dst := HostAddr(w.e2.Addr())
	w.k1.Spawn("owner", func(p *aegis.Process) {
		st := w.stack(p, w.e1)
		w.eng.Schedule(buildCycles+1, func() {
			_ = st.Send(testProto, dst, nil, pattern(10, 1))
		})
		_ = st.Send(testProto, dst, nil, pattern(1000, 0))
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "re-entered") || !strings.Contains(msg, "owner's send") {
			t.Errorf("re-entering Send ended with %q, want a panic naming the owner", msg)
		}
		if len(w.wire) != 0 {
			t.Errorf("%d frames reached the wire", len(w.wire))
		}
	}()
	w.eng.Run()
}
