package aegis

import (
	"ashs/internal/sim"
)

type procState int

const (
	procRunnable procState = iota
	procRunning
	procBlocked
	procPolling // holds the CPU but is waiting on a ring (busy-wait)
	procDead
)

// Process is a simulated application process. Its body is ordinary Go code
// that models computation by calling Compute and interacts with the kernel
// through the syscall-style methods; the scheduler decides when it holds
// the simulated CPU.
type Process struct {
	K    *Kernel
	Name string
	AS   *AddrSpace

	sp          *sim.Proc
	state       procState
	quantumLeft sim.Time

	// pendingCharge accumulates kernel-imposed costs (context switch,
	// wakeup path) that the process pays when it next runs.
	pendingCharge sim.Time

	// preemptWanted asks a polling/computing process to yield early
	// (priority-boost scheduling).
	preemptWanted bool

	// waitRing is the ring a WaitRecvUntil with a deadline last blocked on;
	// its timer event reads it.
	waitRing *Ring
}

// Spawn creates a process and makes it runnable.
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{K: k, Name: name}
	p.AS = k.NewAddrSpace(name)
	k.procs = append(k.procs, p)
	p.sp = k.Eng.Go(k.Name+"/"+name, func(sp *sim.Proc) {
		// Wait for first dispatch.
		p.state = procRunnable
		k.Sched.Enqueue(p)
		k.maybeDispatch()
		sp.Park()
		p.payPending()
		body(p)
		p.exit()
	})
	return p
}

// payPending burns kernel-imposed costs (runs with CPU held).
func (p *Process) payPending() {
	if p.pendingCharge > 0 {
		c := p.pendingCharge
		p.pendingCharge = 0
		p.spendCPU(c)
	}
}

// spendCPU advances time by c while holding the CPU (no preemption check:
// used for short kernel-imposed charges).
func (p *Process) spendCPU(c sim.Time) {
	p.quantumLeft -= c
	p.sp.Sleep(c)
}

// Compute models c cycles of computation. The process must be scheduled to
// make progress; at quantum expiry it rotates to the back of the run queue.
func (p *Process) Compute(c sim.Time) {
	for c > 0 {
		p.ensureCPU()
		slice := c
		if slice > p.quantumLeft {
			slice = p.quantumLeft
		}
		if slice <= 0 {
			p.rotate()
			continue
		}
		// Run for the slice, but allow a priority-boost preemption to cut
		// it short: park with a timeout; an explicit unpark is preemption.
		start := p.K.Eng.Now()
		preempted := p.parkPreemptible(slice)
		ran := p.K.Eng.Now() - start
		p.quantumLeft -= ran
		c -= ran
		if preempted && c > 0 {
			p.rotate()
		}
	}
}

// parkPreemptible waits for up to slice cycles while "running". Returns
// true if preempted early.
func (p *Process) parkPreemptible(slice sim.Time) bool {
	if !p.preemptWanted {
		p.state = procRunning
		if !p.sp.ParkTimeout(slice) {
			return false // slice completed
		}
	}
	p.preemptWanted = false
	return true
}

// preempt asks the process to give up the CPU as soon as possible. Only
// meaningful for a running/polling process (called by boost schedulers).
func (p *Process) preempt() {
	if p.state != procRunning && p.state != procPolling {
		return
	}
	p.preemptWanted = true
	// If the process is in a preemptible park (Compute slice or ring
	// poll), cut it short now; if it is mid-sleep paying a short kernel
	// charge, the flag is honored at its next preemptible point.
	if p.sp.Parked() {
		p.sp.Unpark()
	}
}

// ensureCPU blocks until the process holds the CPU.
func (p *Process) ensureCPU() {
	if p.K.current == p {
		return
	}
	p.state = procRunnable
	p.K.Sched.Enqueue(p)
	p.K.maybeDispatch()
	p.sp.Park()
	p.payPending()
}

// rotate yields the CPU to the next runnable process (end of quantum) and
// returns once rescheduled.
func (p *Process) rotate() {
	p.K.releaseCPU(p)
	p.ensureCPU()
}

// Block releases the CPU and waits until Wake. The caller must arrange the
// wakeup before blocking can be safely used (lost wakeups are prevented by
// the lock-step engine: Wake between release and park is impossible).
func (p *Process) block() {
	p.state = procBlocked
	p.K.releaseCPU(p)
	p.sp.Park()
	p.payPending()
}

// Wake makes a blocked process runnable (event context or other process).
// Extra cycles are charged to the woken process (wakeup path cost).
func (p *Process) Wake(extra sim.Time) {
	if p.state != procBlocked {
		return
	}
	p.pendingCharge += extra
	p.state = procRunnable
	p.K.Sched.Wake(p)
	p.K.maybeDispatch()
}

// exit terminates the process.
func (p *Process) exit() {
	p.state = procDead
	if p.K.current == p {
		p.K.releaseCPU(p)
	}
}

// Syscall models entry into the kernel through the full system call
// interface plus extra cycles of in-kernel work.
func (p *Process) Syscall(extra sim.Time) {
	if o := p.K.Obs; o.Enabled() {
		t0 := p.K.Now()
		p.Compute(sim.Time(p.K.Prof.SyscallCycles) + extra)
		// Elapsed, not charged: a preempted syscall shows its true extent
		// on the timeline.
		o.Span(p.K.Name, "proc "+p.Name, "kernel", "syscall", t0, p.K.Now()-t0)
		return
	}
	p.Compute(sim.Time(p.K.Prof.SyscallCycles) + extra)
}

// SleepUntil releases the CPU until virtual time t (a timer block):
// unlike Compute, the waiting process holds no CPU, so sibling processes
// on the same kernel run during the wait. Returns immediately if t has
// already passed. A Wake before t puts it back to sleep on a fresh timer:
// the old one is cancelled, so it cannot fire into a later, unrelated block.
func (p *Process) SleepUntil(t sim.Time) {
	p.ensureCPU()
	for p.K.Now() < t {
		timer := p.K.Eng.ScheduleArgAt(t, wakeProcess, p)
		p.block()
		p.K.Eng.Cancel(timer) // a no-op when it is what woke us
	}
}

// wakeProcess is SleepUntil's timer event; the process is its argument, so
// arming one builds no closure.
func wakeProcess(a any) { a.(*Process).Wake(0) }

// SpinForever makes the process compute-bound until the simulation ends.
func (p *Process) SpinForever() {
	for {
		p.Compute(sim.Time(p.K.Prof.QuantumCycles))
	}
}
