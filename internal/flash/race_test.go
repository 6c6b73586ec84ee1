//go:build race

package flash

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// its Puts on purpose, so allocation pins through a pool do not hold.
const raceEnabled = true
