//go:build arenastress

package aegis

// arenaMove under -tags arenastress moves a host's memory far more often
// than a run needs, so a slice from Bytes held across an allocation reads
// poison soon after instead of only when its host first outgrows
// arenaStart: every allocation up to arenaStart moves it to a backing of
// exactly the new brk, and past that the backing doubles, capped at the
// memory size. It is a test switch: a run under it must print what a run
// without it prints.
func arenaMove(brk, capacity, memSize int) (size int, move bool) {
	if brk <= arenaStart {
		return brk, true
	}
	return min(2*brk, memSize), brk > capacity
}
