// Package link abstracts the two network attachments the protocol
// libraries run over: an AN2 virtual-circuit binding and an Ethernet DPF
// filter binding. The user-level protocols of Section IV-D (ARP, IP, UDP,
// TCP, HTTP) are libraries linked into applications; this package is the
// seam between those libraries and the simulated kernel's devices.
//
// A Link is one process's demultiplexing point: frames the kernel
// accepts for it appear on its notification ring, and are read where they
// landed through aegis.Frame, the one reader of either device's layout;
// sends go through the system-call path. Downloaded handlers (ASHs) and
// upcalls attach at the same point, upstream of the ring.
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
func (l *Link) Recv(polling bool) aegis.Frame {
	f, _ := l.RecvUntil(polling, 0)
	return f
}

// RecvUntil is Recv with an absolute virtual-time deadline (0 = none); ok
// is false on timeout.
func (l *Link) RecvUntil(polling bool, deadline sim.Time) (aegis.Frame, bool) {
	var e aegis.RingEntry
	var ok bool
	if polling {
		e, ok = l.bind.Ring().PollRecvUntil(l.bind.Owner, deadline)
	} else {
		e, ok = l.bind.Ring().WaitRecvUntil(l.bind.Owner, deadline)
	}
	return l.bind.Frame(e), ok
}

// Release returns the frame's buffer to the receive pool, charging the
// buffer-management path. The kernel refuses (and counts) the release of a
// frame that holds no buffer, such as a doorbell.
func (l *Link) Release(f aegis.Frame) {
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
