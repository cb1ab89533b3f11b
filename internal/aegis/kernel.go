// Package aegis simulates the exokernel operating system the ASH system
// was built in (Section IV-A): protected access to network devices,
// processes with address spaces, fast kernel crossings, schedulers, and
// asynchronous upcalls.
//
// Every kernel primitive charges calibrated cycle costs from the machine
// profile against the simulation clock, so end-to-end latencies emerge
// from the same composition of costs the paper measures: device hardware
// time + driver work + demultiplexing + (handler | upcall | user-level
// delivery) + scheduling.
//
// One Kernel is one host. Multiple hosts share a sim.Engine and a
// netdev.Switch to form a testbed.
package aegis

import (
	"fmt"

	"ashs/internal/mach"
	"ashs/internal/obs"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// Kernel is one simulated host: CPU, memory, cache, scheduler, devices.
type Kernel struct {
	Name  string
	Eng   *sim.Engine
	Prof  *mach.Profile
	Cache *mach.Cache
	Mem   *vcode.FlatMem // host physical memory: the allocated prefix, see NewKernelMem
	Sched Scheduler

	// Obs is the host's observability plane. nil (the default) disables
	// tracing and metrics at zero cost; see internal/obs.
	Obs *obs.Plane

	current      *Process
	lastOnCPU    *Process
	dispatchPend bool
	brk          uint32 // bump allocator
	procs        []*Process

	// kernBusyUntil serializes kernel receive-path work (interrupt
	// handling, demultiplexing, downloaded handlers): back-to-back
	// arrivals queue behind one another on the CPU rather than
	// overlapping in virtual time.
	kernBusyUntil sim.Time

	// arena is the leased backing array of the host's whole memory, length
	// 0 and capacity the memory size; Mem.Data is its allocated prefix. nil
	// once the host is closed.
	arena []byte

	// mcFree recycles receive-path MsgCtxs; the *Fn fields are the
	// bound event callbacks scheduled per arrival (bound once here so the
	// hot path never builds a closure or method value).
	mcFree     *MsgCtx
	commitFn   func(any)
	ringPushFn func(any)
	doorbellFn func(any)

	// Statistics. BatchedInterrupts counts device arrivals that landed
	// while the kernel receive path was already busy and were drained from
	// the ring in the same interrupt service — they charge demux and
	// delivery but not a fresh interrupt entry/exit.
	CtxSwitches       uint64
	Interrupts        uint64
	BatchedInterrupts uint64
}

// HostMemBase is where simulated physical memory starts. Leaving page 0
// unmapped catches null-pointer handler bugs.
const HostMemBase = 0x00100000

// HostMemSize is the default amount of simulated physical memory per host.
const HostMemSize = 8 << 20

// NewKernel boots a host named name on engine eng with the default memory
// size.
func NewKernel(name string, eng *sim.Engine, prof *mach.Profile) *Kernel {
	return NewKernelMem(name, eng, prof, HostMemSize)
}

// NewKernelMem boots a host with memSize bytes of physical memory. Fan-in
// testbeds size client hosts well below the default so a 512-host world
// fits.
//
// The memory is an arena leased from the package's pool (all-zero, see
// arena.go), and the valid range is exactly what the kernel has allocated:
// Mem.Data is arena[:off:off] with off = brk - HostMemBase, length and
// capacity both clamped. Only AllocPhys re-slices it forward — over the
// same backing array, so every slice Bytes has handed out stays valid — and
// only Close takes it away. An access above brk therefore fails the bounds
// checks that exist anyway (FaultBadAddr from FlatMem.Load and Store, a
// panic from Bytes) instead of reading zeros, and Data itself is the
// record of which bytes the world may have dirtied.
func NewKernelMem(name string, eng *sim.Engine, prof *mach.Profile, memSize int) *Kernel {
	if memSize <= 0 {
		panic("aegis: NewKernelMem of nonpositive size")
	}
	k := &Kernel{
		Name:  name,
		Eng:   eng,
		Prof:  prof,
		Cache: mach.NewCache(prof),
		Mem:   &vcode.FlatMem{Base: HostMemBase},
		brk:   HostMemBase,
		arena: leaseArena(memSize),
	}
	k.Sched = NewRoundRobin()
	k.commitFn = k.mcCommit
	k.ringPushFn = k.mcRingPush
	k.doorbellFn = k.mcDoorbell
	return k
}

// MemSize reports the host's physical memory size in bytes (0 once closed).
func (k *Kernel) MemSize() int { return cap(k.arena) }

// Close ends the host: it zeroes the memory the host allocated, returns the
// arena to the pool and leaves Mem.Data nil, so a later access through the
// closed kernel faults (FlatMem.Load and Store) or panics (Bytes, AllocPhys)
// rather than scribbling on whichever world leases the arena next. Slices
// obtained from Bytes must not be used afterwards either. Close is a
// performance contract, not an obligation: a kernel never closed is
// collected like any other garbage. A second Close is a no-op.
func (k *Kernel) Close() {
	if k.arena == nil {
		return
	}
	returnArena(k.arena, len(k.Mem.Data))
	k.arena, k.Mem.Data = nil, nil
}

// AllocPhys carves n bytes (rounded to a cache line) out of physical
// memory and returns the base address. Exhaustion is a runtime condition
// a guest can trigger (by asking for too much), so it surfaces as an
// error rather than crashing the whole simulation; only a nonpositive
// size or a closed host — programming errors in the caller — still panic.
func (k *Kernel) AllocPhys(n int, why string) (uint32, error) {
	if n <= 0 {
		panic("aegis: AllocPhys of nonpositive size")
	}
	if k.arena == nil {
		panic(fmt.Sprintf("aegis %s: AllocPhys for %s on a closed host", k.Name, why))
	}
	line := uint32(k.Prof.LineBytes)
	base := (k.brk + line - 1) &^ (line - 1)
	if uint64(base)+uint64(n) > HostMemBase+uint64(cap(k.arena)) {
		if o := k.Obs; o.Enabled() {
			o.Inc("aegis/" + k.Name + "/alloc_failures")
		}
		return 0, fmt.Errorf("aegis %s: out of physical memory allocating %d for %s",
			k.Name, n, why)
	}
	k.brk = base + uint32(n)
	off := k.brk - HostMemBase
	k.Mem.Data = k.arena[:off:off]
	return base, nil
}

// Bytes returns the raw byte view of physical range [addr, addr+n), which
// must lie inside allocated memory. The capacity is clamped to n so
// overruns fail loudly instead of silently reading neighboring memory.
func (k *Kernel) Bytes(addr uint32, n int) []byte {
	i := addr - k.Mem.Base
	if uint64(i)+uint64(n) > uint64(len(k.Mem.Data)) {
		panic(&bytesRangeError{k, addr, n})
	}
	return k.Mem.Data[i : i+uint32(n) : i+uint32(n)]
}

// bytesRangeError is the panic value of a Bytes call outside allocated
// memory. It is built in place, not by a helper, so Bytes still inlines.
type bytesRangeError struct {
	k    *Kernel
	addr uint32
	n    int
}

func (e *bytesRangeError) Error() string {
	if e.k.arena == nil {
		return fmt.Sprintf("aegis %s: Bytes(%#x, %d) on a closed host", e.k.Name, e.addr, e.n)
	}
	return fmt.Sprintf("aegis %s: Bytes(%#x, %d) outside allocated memory [%#x, %#x)",
		e.k.Name, e.addr, e.n, e.k.Mem.Base, e.k.brk)
}

// Now reports virtual time.
func (k *Kernel) Now() sim.Time { return k.Eng.Now() }

// Us converts cycles to microseconds under this host's profile.
func (k *Kernel) Us(c sim.Time) float64 { return k.Prof.Us(c) }

// maybeDispatch schedules a dispatch pass if the CPU is free.
func (k *Kernel) maybeDispatch() {
	if k.current != nil || k.dispatchPend {
		return
	}
	k.dispatchPend = true
	k.Eng.ScheduleArg(0, kernelDispatch, k)
}

// kernelDispatch is the dispatch event; the kernel is its argument, so
// every block and wake does not build a method value.
func kernelDispatch(a any) { a.(*Kernel).dispatch() }

// dispatch gives the CPU to the next runnable process (event context).
func (k *Kernel) dispatch() {
	k.dispatchPend = false
	if k.current != nil {
		return
	}
	next := k.Sched.Next()
	if next == nil {
		return
	}
	k.current = next
	next.state = procRunning
	next.quantumLeft = sim.Time(k.Prof.QuantumCycles)
	switchCost := sim.Time(0)
	if k.lastOnCPU != next && k.lastOnCPU != nil {
		switchCost = sim.Time(k.Prof.CtxSwitchCycles)
		k.CtxSwitches++
	}
	if o := k.Obs; o != nil {
		// The switch cost lands on next's pendingCharge and is paid the
		// moment it resumes, i.e. starting at this virtual instant.
		if switchCost > 0 {
			o.Span(k.Name, "sched", "sched", "ctx switch to "+next.Name,
				k.Eng.Now(), switchCost)
			o.Inc("aegis/" + k.Name + "/ctx_switches")
		}
		o.Instant(k.Name, "sched", "sched", "dispatch "+next.Name, k.Eng.Now())
	}
	k.lastOnCPU = next
	next.pendingCharge += switchCost
	next.sp.Unpark()
}

// releaseCPU takes the CPU away from p (which must hold it).
func (k *Kernel) releaseCPU(p *Process) {
	if k.current != p {
		panic("aegis: releaseCPU by non-current process")
	}
	k.current = nil
	k.maybeDispatch()
}

// Current returns the process on CPU, if any.
func (k *Kernel) Current() *Process { return k.current }

// kernStart returns the time kernel receive-path work beginning "now" can
// actually start (behind any in-progress kernel work).
func (k *Kernel) kernStart() sim.Time {
	t := k.Eng.Now()
	if k.kernBusyUntil > t {
		t = k.kernBusyUntil
	}
	return t
}

// interruptEntry models interrupt delivery for one device arrival and
// returns the cycles to charge. An arrival to an idle kernel receive path
// pays the full interrupt entry/exit cost; one landing while earlier
// receive work is still in progress is drained from the device ring by
// that in-progress service loop, so a burst of N back-to-back arrivals
// charges one interrupt plus N-1 amortized ring drains.
func (k *Kernel) interruptEntry() sim.Time {
	if k.kernBusyUntil > k.Eng.Now() {
		k.BatchedInterrupts++
		return 0
	}
	k.Interrupts++
	return sim.Time(k.Prof.InterruptCycles)
}
