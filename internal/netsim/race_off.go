//go:build !race

package netsim

// poisonReleased reports whether a released datagram buffer is
// poisoned; see race_on.go.
const poisonReleased = false
