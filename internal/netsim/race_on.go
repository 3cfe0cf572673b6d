//go:build race

package netsim

// poisonReleased reports whether a released datagram buffer is
// overwritten with poisonByte. It is on in race-detector builds, so
// `go test -race` runs every digest and relay test with a use after
// release turning into a bad checksum or a changed digest.
const poisonReleased = true
