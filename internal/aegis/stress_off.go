//go:build !arenastress

package aegis

// arenaMove is the promotion policy: an allocation that takes a host's brk
// past its arena's capacity moves it, once, to an arena of the full memory
// size. (Building with -tags arenastress swaps in a policy that moves far
// more often; see stress_on.go.)
func arenaMove(brk, capacity, memSize int) (size int, move bool) {
	return memSize, brk > capacity
}
