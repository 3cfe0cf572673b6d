//go:build race

package eem

// raceEnabled reports whether this test binary carries the race
// detector, under which sync.Pool drops puts at random.
const raceEnabled = true
