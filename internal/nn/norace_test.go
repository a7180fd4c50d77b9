//go:build !race

package nn

// raceEnabled reports a race-detector build, whose instrumented loops run
// an order of magnitude slower.
const raceEnabled = false
