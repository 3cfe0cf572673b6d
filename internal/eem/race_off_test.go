//go:build !race

package eem

// raceEnabled reports whether this test binary carries the race
// detector; see race_on_test.go.
const raceEnabled = false
