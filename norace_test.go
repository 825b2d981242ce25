//go:build !race

package fractal

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
