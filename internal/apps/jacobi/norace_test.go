//go:build !race

package jacobi

const raceEnabled = false
