//go:build !race

package consensus

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
