//go:build !race

package slot

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
