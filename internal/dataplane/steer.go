// Package dataplane is the concurrent execution layer of the Service
// Proxy, used by the benchmark and the stress tests: a dispatcher
// hashes each packet's stream key onto one of N shards, and each shard
// is a complete single-writer proxy instance (its own slice of the
// stream registry, filter queues, flow log, and Stats) on a goroutine
// of its own, fed batches through a bounded SPSC ring with control
// delivered at batch boundaries (ringExec). Both directions of a
// stream land on the same shard, so per-stream packet order — the
// property TCP filters depend on — is preserved while unrelated
// streams proceed in parallel. Filter timers do not fire here.
//
// The simulator does not use this package: each core.Site runs one
// proxy.Proxy as its node's hook.
package dataplane

import "repro/internal/filter"

// FNV-1a constants, written out so shard placement can never pick up a
// randomized or platform-dependent hash: the same 4-tuple must land on
// the same shard in every process, every run.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is the direction-normalized steering hash: both directions of a
// stream (k and k.Reverse()) hash identically. Endpoints are reduced
// to 48-bit (IP, port) values, ordered canonically (smaller first),
// and fed byte-by-byte through FNV-1a.
func Hash(k filter.Key) uint64 {
	a := uint64(k.SrcIP)<<16 | uint64(k.SrcPort)
	b := uint64(k.DstIP)<<16 | uint64(k.DstPort)
	if a > b {
		a, b = b, a
	}
	h := uint64(fnvOffset64)
	for shift := 40; shift >= 0; shift -= 8 {
		h = (h ^ (a >> uint(shift) & 0xff)) * fnvPrime64
	}
	for shift := 40; shift >= 0; shift -= 8 {
		h = (h ^ (b >> uint(shift) & 0xff)) * fnvPrime64
	}
	return h
}

// ShardOf maps a stream key to its owning shard index in [0, n).
func ShardOf(k filter.Key, n int) int {
	if n <= 1 {
		return 0
	}
	return int(Hash(k) % uint64(n))
}

// steer is Dispatch's steering step: extract the stream key from the
// raw bytes in place and hash it to the owning shard. Packets that fail extraction go to
// shard 0.
func (pl *Plane) steer(raw []byte) int {
	if pl.n == 1 {
		return 0
	}
	if k, ok := filter.SteerKey(raw); ok {
		return ShardOf(k, pl.n)
	}
	return 0
}
