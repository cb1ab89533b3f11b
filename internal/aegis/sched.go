package aegis

import "ashs/internal/sim"

// Scheduler decides CPU allocation. Two policies reproduce Fig. 4:
//
//   - RoundRobin is Aegis' oblivious round-robin: a process woken by a
//     message waits for its turn, so latency grows with the number of
//     active processes.
//
//   - PriorityBoost models the Ultrix-style scheduler that "raises the
//     priority of a process immediately after a network interrupt": woken
//     processes go to the front of the queue and preempt the current
//     process, at the cost of the (larger) Ultrix-class crossing overhead.
//
// ASHs bypass scheduling entirely, which is the paper's point.
type Scheduler interface {
	// Enqueue adds a runnable process (end of quantum, spawn, plain wake).
	Enqueue(p *Process)
	// Wake adds a process that just received a message.
	Wake(p *Process)
	// Next removes and returns the next process to run; nil if none.
	Next() *Process
}

// RoundRobin is the oblivious FIFO scheduler.
type RoundRobin struct {
	queue []*Process
}

// NewRoundRobin returns the default Aegis scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Enqueue implements Scheduler.
func (s *RoundRobin) Enqueue(p *Process) { s.queue = append(s.queue, p) }

// Wake implements Scheduler: no message awareness, tail like everyone else.
func (s *RoundRobin) Wake(p *Process) { s.Enqueue(p) }

// Next implements Scheduler.
func (s *RoundRobin) Next() *Process {
	if len(s.queue) == 0 {
		return nil
	}
	p := s.queue[0]
	copy(s.queue, s.queue[1:])
	s.queue = s.queue[:len(s.queue)-1]
	return p
}

// PriorityBoost is the Ultrix-like scheduler.
type PriorityBoost struct {
	k     *Kernel
	queue []*Process
}

// NewPriorityBoost returns a boost scheduler for host k.
func NewPriorityBoost(k *Kernel) *PriorityBoost { return &PriorityBoost{k: k} }

// Enqueue implements Scheduler.
func (s *PriorityBoost) Enqueue(p *Process) { s.queue = append(s.queue, p) }

// Wake implements Scheduler: front of the queue, and preempt whoever is
// running so the message is seen quickly. The boost decision scans the
// run queue (classic Unix schedulers recompute priorities), so its cost
// grows with the number of active processes — the residual effect Fig. 4
// shows for the Ultrix-like scheduler.
func (s *PriorityBoost) Wake(p *Process) {
	p.pendingCharge += sim.Time(2 * s.k.Prof.SchedDecision * len(s.queue))
	s.queue = append([]*Process{p}, s.queue...)
	if cur := s.k.Current(); cur != nil && cur != p {
		cur.preempt()
	}
}

// Next implements Scheduler.
func (s *PriorityBoost) Next() *Process {
	if len(s.queue) == 0 {
		return nil
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	return p
}
