package vcode

// Journal wraps a Memory with an undo log, giving the kernel the rollback
// half of the paper's abort discipline: an involuntarily aborted handler
// must leave no trace. Store is the one place anything is lent for writing
// — a handler's own store, the destination of ash_copy or ash_dilp, the
// output stream of a streaming loop — so that is where the range's current
// bytes are copied into the log, before the caller sees the window. Loads
// pass straight through.
//
// A Store that fails (bad address, absent page) records nothing: nothing was
// lent, and the fault it raises is what triggers the undo.
type Journal struct {
	Mem Memory

	// pre holds the pre-images back to back, in the order they were taken;
	// ranges says where each came from. Both keep their capacity across
	// invocations, so a handler that has run once journals without
	// allocating.
	pre    []byte
	ranges []journalRange
}

type journalRange struct {
	addr uint32
	n    int
}

// NewJournal wraps mem.
func NewJournal(mem Memory) *Journal {
	return &Journal{Mem: mem}
}

// Reset discards the log; call it at handler entry so Undo rolls back to
// exactly the pre-invocation state.
func (j *Journal) Reset() { j.pre, j.ranges = j.pre[:0], j.ranges[:0] }

// Undo copies the pre-images back, newest first (ranges may overlap: the
// oldest image of a byte is the pre-invocation one), then clears the log.
func (j *Journal) Undo() {
	end := len(j.pre)
	for i := len(j.ranges) - 1; i >= 0; i-- {
		r := j.ranges[i]
		if dst, err := j.Mem.Store(r.addr, r.n); err == nil {
			copy(dst, j.pre[end-r.n:end])
		}
		end -= r.n
	}
	j.Reset()
}

// Load implements Memory.
func (j *Journal) Load(addr uint32, n int) ([]byte, error) { return j.Mem.Load(addr, n) }

// Store implements Memory, pre-imaging the range it lends.
func (j *Journal) Store(addr uint32, n int) ([]byte, error) {
	b, err := j.Mem.Store(addr, n)
	if err != nil || n == 0 {
		return b, err
	}
	j.pre = append(j.pre, b...)
	j.ranges = append(j.ranges, journalRange{addr, n})
	return b, nil
}
