//go:build race

package asp

// raceEnabled shrinks the differential tests under the race detector,
// which slows the element-loop references about tenfold.
const raceEnabled = true
