// Package dataplane is the sharded flow-steering execution layer of
// the Service Proxy: a dispatcher hashes each packet's stream key onto
// one of N shards, and each shard is a complete single-writer proxy
// instance (its own slice of the stream registry, filter queues,
// flow log, and Stats). Both directions of a stream land on the same
// shard, so per-stream packet order — the property TCP filters depend
// on — is preserved while unrelated streams proceed in parallel.
//
// Plane routes over one of two executors, chosen by its constructor
// and by nothing else (exec.go):
//
//   - inlineExec (NewInline): steering, interception and control run
//     synchronously on the caller's goroutine, inside the deterministic
//     simulator. With one shard this is byte-for-byte today's proxy;
//     with more it partitions state while keeping scheduler-ordered
//     execution.
//   - ringExec (NewConcurrent): one goroutine per shard behind a
//     bounded SPSC ring of packet batches, control delivered at batch
//     boundaries, for multi-core throughput outside the simulator (the
//     benchmark, stress tests). Filter timers do not fire there.
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

// steer is the shared steering step of both packet entry points (Hook,
// Dispatch): extract the stream key from the raw bytes in place and
// hash it to the owning shard. Packets that fail extraction go to
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
