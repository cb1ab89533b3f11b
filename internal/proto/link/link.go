// Package link abstracts the two network attachments the protocol
// libraries run over: an AN2 virtual-circuit binding and an Ethernet DPF
// filter binding. The user-level protocols of Section IV-D (ARP, IP, UDP,
// TCP, HTTP) are libraries linked into applications; this package is the
// seam between those libraries and the simulated kernel's devices.
//
// A Link is one process's demultiplexing point: frames the kernel
// accepts for it appear on its notification ring; sends go through the
// system-call path. Downloaded handlers (ASHs) and upcalls attach at the
// same point, upstream of the ring.
package link

import (
	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/sim"
)

// Addr is a link-level destination.
type Addr struct {
	Port int // switch port of the destination host
	VC   int // AN2 virtual circuit (0 on Ethernet)
}

// Frame is a received link payload, still in its receive buffer.
type Frame struct {
	Entry   aegis.RingEntry
	Striped bool // Ethernet striping DMA layout
	k       *aegis.Kernel
}

// Len is the payload length in bytes.
func (f *Frame) Len() int { return f.Entry.Len }

// Addr is the simulated physical address of the payload (striped frames:
// of the striped buffer).
func (f *Frame) Addr() uint32 { return f.Entry.Addr }

// Byte reads payload byte i (stripe-aware, uncosted: callers charge
// header-parse costs explicitly).
func (f *Frame) Byte(i int) byte {
	return f.raw()[f.index(i)]
}

// U16 reads a big-endian 16-bit field at offset i.
func (f *Frame) U16(i int) uint16 {
	return uint16(f.Byte(i))<<8 | uint16(f.Byte(i+1))
}

// U32 reads a big-endian 32-bit field at offset i.
func (f *Frame) U32(i int) uint32 {
	return uint32(f.U16(i))<<16 | uint32(f.U16(i+2))
}

func (f *Frame) raw() []byte {
	n := f.Entry.Len
	if f.Striped {
		n = 2 * n
	}
	return f.k.Bytes(f.Entry.Addr, n)
}

func (f *Frame) index(i int) int {
	if f.Striped {
		return aegis.StripedIndex(i)
	}
	return i
}

// Bytes copies the payload range [off, off+n) into dst (uncosted; use
// CopyFromFrame for a costed copy). A striped payload is gathered a data
// line at a time.
func (f *Frame) Bytes(dst []byte, off, n int) {
	raw := f.raw()
	if !f.Striped {
		copy(dst, raw[off:off+n])
		return
	}
	for done := 0; done < n; {
		at := off + done
		run := min(aegis.StripeChunk-at%aegis.StripeChunk, n-done)
		copy(dst[done:done+run], raw[aegis.StripedIndex(at):])
		done += run
	}
}

// cksum is CksumData(0, payload[off:off+n]) read in place. A striped
// payload is summed a data line at a time; a line that starts on an odd
// payload byte opens with the low half of the halfword the previous line
// left open, which the end-around-carry sum takes in either order.
func (f *Frame) cksum(off, n int) uint32 {
	raw := f.raw()
	if !f.Striped {
		return CksumData(0, raw[off:off+n])
	}
	var acc uint32
	for done := 0; done < n; {
		at := off + done
		run := min(aegis.StripeChunk-at%aegis.StripeChunk, n-done)
		line := raw[aegis.StripedIndex(at):][:run]
		if done%2 == 1 {
			acc = CksumData(acc, []byte{0, line[0]})
			line = line[1:]
		}
		acc = CksumData(acc, line)
		done += run
	}
	return acc
}

// FabricateFrame builds a Frame view over an arbitrary contiguous memory
// range (e.g. an IP reassembly buffer), so transports can treat assembled
// datagrams and in-buffer datagrams uniformly.
func FabricateFrame(k *aegis.Kernel, addr uint32, n int) Frame {
	return Frame{Entry: aegis.RingEntry{Addr: addr, Len: n}, k: k}
}

// Link is a process's attachment to a network over a kernel binding: an
// AN2 virtual circuit or an Ethernet DPF filter. Which one only matters to
// the constructor.
type Link struct {
	nic  *aegis.NIC
	bind *aegis.Binding
}

// BindAN2 binds process owner to virtual circuit vc with nbufs receive
// buffers of bufSize bytes.
func BindAN2(iface *aegis.AN2If, owner *aegis.Process, vc, nbufs, bufSize int) (*Link, error) {
	b, err := iface.BindVC(owner, vc, nbufs, bufSize)
	if err != nil {
		return nil, err
	}
	return &Link{nic: &iface.NIC, bind: b}, nil
}

// BindEthernet installs filter f for owner and returns the endpoint.
func BindEthernet(iface *aegis.EthernetIf, owner *aegis.Process, f *dpf.Filter) (*Link, error) {
	b, err := iface.BindFilter(owner, f)
	if err != nil {
		return nil, err
	}
	return &Link{nic: &iface.NIC, bind: b}, nil
}

// Kernel returns the host kernel.
func (l *Link) Kernel() *aegis.Kernel { return l.nic.K }

// Owner returns the owning process.
func (l *Link) Owner() *aegis.Process { return l.bind.Owner }

// MTU is the largest payload a frame can carry.
func (l *Link) MTU() int { return l.nic.MaxFrame() }

// Send transmits payload to dst through the user-level path (system call +
// device setup), charging the owner.
func (l *Link) Send(dst Addr, payload []byte) {
	l.nic.Send(l.bind.Owner, dst.Port, dst.VC, payload)
}

// Recv returns the next frame; polling selects busy-wait vs blocking.
func (l *Link) Recv(polling bool) Frame {
	f, _ := l.RecvUntil(polling, 0)
	return f
}

// RecvUntil is Recv with an absolute virtual-time deadline (0 = none); ok
// is false on timeout.
func (l *Link) RecvUntil(polling bool, deadline sim.Time) (Frame, bool) {
	var e aegis.RingEntry
	var ok bool
	if polling {
		e, ok = l.bind.Ring.PollRecvUntil(l.bind.Owner, deadline)
	} else {
		e, ok = l.bind.Ring.WaitRecvUntil(l.bind.Owner, deadline)
	}
	return l.frame(e), ok
}

func (l *Link) frame(e aegis.RingEntry) Frame {
	return Frame{Entry: e, Striped: l.bind.Striped(), k: l.nic.K}
}

// Release returns the frame's buffer to the receive pool, charging the
// buffer-management path. The kernel refuses (and counts) the release of a
// frame that holds no buffer, such as a doorbell.
func (l *Link) Release(f Frame) {
	l.bind.Owner.Compute(sim.Time(l.nic.K.Prof.BufferMgmtCycles))
	l.bind.Free(f.Entry.BufIndex)
}

// InstallHandler attaches a downloaded handler upstream of the ring.
func (l *Link) InstallHandler(h aegis.MsgHandler) { l.bind.Handler = h }

// InstallUpcall attaches an upcall upstream of the ring.
func (l *Link) InstallUpcall(u *aegis.Upcall) { l.bind.Upcall = u }

// Binding exposes the underlying kernel binding (for admission control
// and drop statistics).
func (l *Link) Binding() *aegis.Binding { return l.bind }
