//go:build race

package jacobi

// raceEnabled shrinks the differential tests under the race detector,
// which slows the element-loop references about tenfold.
const raceEnabled = true
