// Package perf holds the micro-benchmarks and allocation gates for
// the packet hot path: parse/remarshal cost, interception with filter
// queues of increasing depth, registry matching at increasing registry
// sizes (first-sight scan vs the negative-match cache), and TTSF
// edit-map lookup at increasing edit counts.
//
// The pass-through invariants — BenchmarkInterceptPassThrough and
// BenchmarkInterceptTCPFilter run at 0 allocs/op — are asserted by
// tests in this package via testing.AllocsPerRun, so a regression
// fails `go test ./...`, not just a benchmark eyeball. So are the edit
// path's: a re-marshal and a translated reverse ACK allocate exactly
// the emitted datagram, and the TTSF remap costs the same against 4096
// live edits as against 16.
//
// Run `./bench.sh` (or `make bench`) for benchstat-ready output:
// every benchmark reports allocations and runs with -count=10.
package perf
