//go:build !race

package flash

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
