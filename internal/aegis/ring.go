package aegis

import (
	"ashs/internal/sim"
)

// RingEntry is one notification: a message landed at Addr for Len bytes.
// The kernel and the owning process share the ring (Section IV-A: "the
// kernel and user share a virtualized notification ring per virtual
// circuit; by examining this ring an application can determine that a
// message arrived and where the message was placed").
type RingEntry struct {
	Addr uint32
	Len  int
	VC   int
	Src  int // sender's port address
	// BufIndex identifies the receive buffer so the app can return it.
	BufIndex int
}

// Ring is a kernel/user shared notification ring. Entries live in a
// power-of-two circular buffer that doubles when full: steady-state
// push/pop traffic recirculates the same storage and allocates nothing
// (the old slide-forward slice re-allocated continuously under load).
// A binding gets its ring on the first push or wait (Binding.Ring), in a
// slot of its interface's pages, so a binding whose handler consumes
// every message has none.
type Ring struct {
	buf     []RingEntry // circular; len(buf) is a power of two
	head    int32       // index of the oldest entry
	count   int32
	waiter  *Process
	polling bool

	// HighWater, when positive, is the admission-control threshold: the
	// demultiplexor sheds new arrivals for this ring once Len() reaches
	// it, instead of queueing without bound. A deep ring means the owner
	// is not keeping up; admitting more frames only converts fresh,
	// retryable requests into stale queued ones (the receive-livelock
	// shape of Section VI-4, moved from CPU time to memory). Zero keeps
	// the ring unbounded.
	HighWater int

	// Shed counts arrivals admission control refused: the frame matched
	// this ring's binding, but the ring stood at HighWater, so it was
	// dropped before it consumed a buffer. Per ring, so an overloaded
	// endpoint's shedding is attributable to it.
	Shed uint64
}

// Len reports queued notifications.
func (r *Ring) Len() int { return int(r.count) }

// grow doubles the circular buffer (or seeds it).
func (r *Ring) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 8
	}
	next := make([]RingEntry, n)
	for i := 0; i < int(r.count); i++ {
		next[i] = r.buf[(int(r.head)+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}

// push appends an entry (kernel side, event context) and wakes any waiter.
// wakeExtra is charged to a blocked waiter's wakeup path.
func (r *Ring) push(e RingEntry, wakeExtra sim.Time) {
	if int(r.count) == len(r.buf) {
		r.grow()
	}
	r.buf[int(r.head+r.count)&(len(r.buf)-1)] = e
	r.count++
	if r.waiter == nil {
		return
	}
	w := r.waiter
	r.waiter = nil
	if r.polling {
		// The poller holds the CPU and notices on its next ring check.
		r.polling = false
		w.sp.Unpark()
	} else {
		w.Wake(wakeExtra)
	}
}

// TryRecv pops the next entry without blocking (no cost charged).
func (r *Ring) TryRecv() (RingEntry, bool) {
	if r.count == 0 {
		return RingEntry{}, false
	}
	e := r.buf[r.head]
	r.head = int32((int(r.head) + 1) & (len(r.buf) - 1))
	r.count--
	return e, true
}

// WaitRecvUntil blocks (releases the CPU) until a notification arrives:
// the interrupt-driven receive path. The wakeup pays the scheduling cost
// the kernel imposes on suspended receivers. deadline is an absolute
// virtual time (0 = none); ok is false if it passed with no notification.
func (r *Ring) WaitRecvUntil(p *Process, deadline sim.Time) (RingEntry, bool) {
	for {
		if e, ok := r.TryRecv(); ok {
			p.Compute(sim.Time(p.K.Prof.RingPollCycles))
			return e, true
		}
		if deadline != 0 && p.K.Now() >= deadline {
			return RingEntry{}, false
		}
		var timer sim.Timer
		if deadline != 0 {
			p.waitRing = r
			timer = p.K.Eng.ScheduleArgAt(deadline, ringDeadline, p)
		}
		r.waiter = p
		r.polling = false
		p.block()
		p.K.Eng.Cancel(timer)
	}
}

// ringDeadline is WaitRecvUntil's timer event. The process is its argument
// and names the ring it waits on, so arming one builds no closure.
func ringDeadline(a any) {
	p := a.(*Process)
	if r := p.waitRing; r.waiter == p && !r.polling {
		r.waiter = nil
		p.Wake(0)
	}
}

// PollRecvUntil busy-waits for a notification while holding the CPU: the
// "application sitting in a tight loop polling for a message" of Section
// IV-C. Under multiprogramming the poller still rotates at quantum
// boundaries, so polling with competitors only helps during its own slice.
// deadline is as for WaitRecvUntil.
func (r *Ring) PollRecvUntil(p *Process, deadline sim.Time) (RingEntry, bool) {
	for {
		p.ensureCPU()
		if e, ok := r.TryRecv(); ok {
			p.spendCPU(sim.Time(p.K.Prof.RingPollCycles))
			return e, true
		}
		if deadline != 0 && p.K.Now() >= deadline {
			return RingEntry{}, false
		}
		if p.quantumLeft <= 0 {
			p.rotate()
			continue
		}
		span := p.quantumLeft
		if deadline != 0 && deadline-p.K.Now() < span {
			span = deadline - p.K.Now()
		}
		if span <= 0 {
			continue
		}
		r.waiter = p
		r.polling = true
		p.state = procPolling
		start := p.K.Eng.Now()
		gotEntry := p.sp.ParkTimeout(span)
		spun := p.K.Eng.Now() - start
		p.quantumLeft -= spun
		p.state = procRunning
		if !gotEntry || p.preemptWanted {
			if r.waiter == p {
				r.waiter = nil
				r.polling = false
			}
			if p.preemptWanted {
				p.preemptWanted = false
				p.rotate()
			} else if p.quantumLeft <= 0 {
				p.rotate()
			}
		}
	}
}
