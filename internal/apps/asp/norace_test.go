//go:build !race

package asp

const raceEnabled = false
