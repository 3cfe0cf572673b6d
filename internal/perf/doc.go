// Package perf holds the performance invariants of the packet hot
// path, as tests: a regression fails `go test ./...`, nobody has to
// read a number.
//
// Allocation gates (testing.AllocsPerRun): pass-through and
// tcp-filtered interception, the flow log, a decode into a reused
// packet view and the pooled Parse/Release, an 8000-rule classifier
// lookup, a churn of 2^16 never-matching keys, a known flow's packet
// on fwd-small's registry answered from its flow tag (serviced and
// unserviced, the tag stamped afresh each run), a known flow's packet
// through tcp and eight rate-0 rdrops (under -race too), a simulator event
// (After + Step), a simulated link hop and an edited packet through a
// node-hosted tcp+chop proxy, re-marshalled into a datagram the
// network recycles, allocate nothing; a re-marshal of a Parse'd view
// and a translated reverse ACK whose output nothing releases allocate
// exactly the datagram; a whole first-sight flow lifecycle (launcher,
// tcp, two queues, three bus events, the close-grace timer) allocates
// at most twice, under -race too.
//
// Ratio gates (fastestOf, skipped under -short and -race): the TTSF
// remap costs the same against 4096 live edits as against 16
// (TestTTSFEditMapFlat), a classifier lookup the same against 8000
// rules of one pattern as against 1 (TestRegistryLookupFlat), and 8
// shard goroutines carry no less than 0.7x what 1 does
// (TestShardedNoCollapse).
//
// The package records no numbers. Numbers — per layer and end to end,
// and their comparison across commits — come from the repository
// benchmark: `bash benchmark/run.sh --workload W --trace 1`. Four
// benchmarks here time what its rows do not isolate:
// BenchmarkStreamTable sets the stream table (filter.KeyMap) beside the
// Go map it replaced, BenchmarkRegistryMiss times a registry miss
// against fwd-small's three-pattern registry (the classifier rows
// register one pattern), BenchmarkInterceptKnownFlow a known flow's
// data segment through a hooked proxy on that registry, serviced and
// not, and under tcp plus 0, 4 or 8 rate-0 rdrops (depthN: the
// marginal cost of one hook), and BenchmarkPacketDecode times the proxy's
// in-place decode of a 64-byte data segment, a 40-byte ACK and a
// 1460-byte segment (filter.parse_ns times the pooled Parse/Release):
// `go test -run '^$' -bench 'StreamTable|RegistryMiss|InterceptKnownFlow|PacketDecode' -benchmem ./internal/perf`.
package perf
