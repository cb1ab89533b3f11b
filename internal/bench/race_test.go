//go:build race

package bench

// raceEnabled reports a build with the race detector.
const raceEnabled = true
