// Package mach models the machine on which the paper's measurements were
// taken: a 40-MHz MIPS DECstation 5000/240 with separate direct-mapped
// write-through 64-kbyte instruction and data caches.
//
// Everything in this repository that claims to take time does so by charging
// cycles derived from a Profile. The Profile's memory-cost constants are
// calibrated against the paper's *base* measurements (Table I raw latency
// and Table III single-copy throughput); the result tables are then
// regenerated, not transcribed (see DESIGN.md §4).
package mach

import "ashs/internal/sim"

// Profile describes the simulated machine: its clock rate, its memory
// system costs, and the costs of the operating-system primitives measured
// in the paper.
type Profile struct {
	Name string
	MHz  int // CPU clock in megahertz

	// Data-cache geometry (direct-mapped, write-through, write-validate);
	// NewCache requires a power-of-two line size and line count.
	CacheBytes int // total data cache size
	LineBytes  int // cache line size

	// Memory access costs, in cycles.
	LoadHit     int // load hitting the cache, per word
	MissPenalty int // additional cycles to fill one line from memory
	StoreCycles int // write-through store, per word (write buffer)

	// ALU / loop costs, in cycles per 32-bit word.
	LoopOverhead int // index update + branch in a data loop
	ALUOp        int // plain register-register operation
	CksumOp      int // Internet checksum accumulate (add + carry fixup)
	BswapOp      int // byte swap (byte extract/insert on MIPS)

	// Operating-system primitive costs, in cycles. Aegis kernel crossings
	// are very fast (the paper: 5x better than the best in the literature);
	// Ultrix-class systems pay roughly an order of magnitude more. The
	// values are calibrated so that composed paths reproduce the paper's
	// *base* measurements (Table I), and the result tables then emerge.
	SyscallCycles       int // full system call interface: protected entry, argument marshalling, exit
	CrossingCycles      int // one kernel<->user protection boundary crossing
	CtxSwitchCycles     int // full context switch to an unscheduled application
	AddrSpaceSwitch     int // address-space switch only (Liedtke-style upcall)
	InterruptCycles     int // take a device interrupt, save state
	SchedDecision       int // pick next process to run
	TimerArmCycles      int // set up or clear the ASH watchdog timer (~1us each, Section III-B3)
	ASHDispatch         int // install ctx id + page-table pointer, enter handler on user stack
	UpcallDispatch      int // post + enter an asynchronous (batched) upcall at user level
	RingPollCycles      int // inspect the shared notification ring once
	RingUpdateCycles    int // kernel writes a notification ring entry
	BufferMgmtCycles    int // replace a receive buffer from user space (incl. its syscall)
	DeviceTxSetup       int // program the NIC for a transmit (per packet)
	DeviceRxService     int // driver work per received packet (incl. software cache flush)
	KernelPollCycles    int // in-kernel descriptor poll-detect (hardwired kernel path)
	DemuxVCCycles       int // ATM virtual-circuit demultiplex decision
	QuantumCycles       int // scheduler time slice
	ClockTickCycles     int // period of the system clock interrupt ("one tick")
	UltrixExtraCrossing int // extra wake-path cost of an Ultrix-class kernel over Aegis
}

// DS5000_240 returns the calibrated DECstation 5000/240 profile used by all
// experiments. Do not mutate the returned value; call Clone for variants.
func DS5000_240() *Profile {
	p := &Profile{
		Name:       "DECstation 5000/240 (40 MHz R3400)",
		MHz:        40,
		CacheBytes: 64 * 1024,
		LineBytes:  16,

		LoadHit:     1,
		MissPenalty: 12, // per 16-byte line: avg 4 cycles/word uncached
		StoreCycles: 2,

		LoopOverhead: 2,
		ALUOp:        1,
		CksumOp:      3, // addu + sltu + addu
		BswapOp:      8, // srl/sll/andi/or chains

		SyscallCycles:    720,        // 18 us: full system call interface (calibrated, Table I)
		CrossingCycles:   40,         // 1 us: Aegis protected crossing
		CtxSwitchCycles:  2400,       // 60 us: full context switch to an application (Section V-C)
		AddrSpaceSwitch:  80,         // 2 us
		InterruptCycles:  40,         // 1 us: Aegis interrupt entry (5x faster than the literature)
		SchedDecision:    80,         // 2 us
		TimerArmCycles:   40,         // ~1 us each (paper, Section III-B3)
		ASHDispatch:      16,         // 0.4 us: install ctx id + page-table pointer
		UpcallDispatch:   1010,       // 25.25 us: batched, unoptimized upcall machinery (Section V-B)
		RingPollCycles:   60,         // 1.5 us
		RingUpdateCycles: 80,         // 2 us
		BufferMgmtCycles: 600,        // 15 us: replace DMA buffer, incl. its system call
		DeviceTxSetup:    100,        // 2.5 us: write descriptors to the board
		DeviceRxService:  100,        // 2.5 us: driver + software cache flush
		KernelPollCycles: 120,        // 3 us: hardwired kernel poll loop detect
		DemuxVCCycles:    20,         // 0.5 us: VC index lookup
		QuantumCycles:    40 * 15625, // 15.625 ms (64 Hz round-robin slice)
		ClockTickCycles:  40 * 15625, // one clock tick (64 Hz)

		UltrixExtraCrossing: 1200, // 30 us: exception + syscall re-entry on the wake path
	}
	return p
}

// Clone returns a copy of the profile for experiment-specific variation.
func (p *Profile) Clone() *Profile {
	q := *p
	return &q
}

// Cycles converts a duration in microseconds to cycles.
func (p *Profile) Cycles(us float64) sim.Time {
	return sim.Time(us*float64(p.MHz) + 0.5)
}

// Us converts cycles to microseconds.
func (p *Profile) Us(c sim.Time) float64 {
	return float64(c) / float64(p.MHz)
}

// MBps converts (bytes moved, cycles taken) into megabytes per second.
func (p *Profile) MBps(bytes int, c sim.Time) float64 {
	if c == 0 {
		return 0
	}
	us := p.Us(c)
	return float64(bytes) / us // bytes/us == MB/s
}

// WordsPerLine reports 32-bit words per cache line.
func (p *Profile) WordsPerLine() int { return p.LineBytes / 4 }

// LoadMissAvg reports the average per-word cost of streaming uncached loads
// (issue cost plus the line miss amortized over the line's words).
func (p *Profile) LoadMissAvg() int {
	return p.LoadHit + p.MissPenalty/p.WordsPerLine()
}
