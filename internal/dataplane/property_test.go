package dataplane_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// detFilter is a deterministic per-stream transform for the sharding
// property test: it drops every 3rd data packet of its stream and
// truncates the others by one byte. Its behavior depends only on the
// per-stream packet sequence — never on time, randomness, or other
// streams — so any shard layout that preserves per-stream order must
// reproduce the N=1 output exactly.
type detFilter struct{}

func (*detFilter) Name() string        { return "det" }
func (*detFilter) Description() string { return "deterministic drop/truncate (test)" }

func (*detFilter) New(env filter.Env, k filter.Key, args []string) error {
	count := 0
	_, err := env.Attach(k, filter.Hooks{
		Filter: "det", Priority: filter.Low,
		Out: func(pkt *filter.Packet) {
			if pkt.Dropped() || pkt.TCP == nil || len(pkt.TCP.Payload) == 0 {
				return
			}
			count++
			if count%3 == 0 {
				pkt.Drop()
				return
			}
			pkt.TCP.Payload = pkt.TCP.Payload[:len(pkt.TCP.Payload)-1]
			pkt.MarkDirty()
		},
	})
	return err
}

// buildTrace makes an interleaved packet trace over flows distinct
// streams. Buffers are never reused: each dispatch owns its bytes.
func buildTrace(t testing.TB, flows, perFlow int) [][]byte {
	t.Helper()
	type cursor struct {
		port uint16
		seq  uint32
		sent int
	}
	cur := make([]*cursor, flows)
	for i := range cur {
		cur[i] = &cursor{port: uint16(1000 + i), seq: 1}
	}
	rng := rand.New(rand.NewSource(42))
	var trace [][]byte
	for len(trace) < flows*perFlow {
		c := cur[rng.Intn(flows)]
		if c.sent == perFlow {
			continue
		}
		payload := []byte(fmt.Sprintf("flow=%d seq=%d padpadpad", c.port, c.sent))
		trace = append(trace, mkSeg(t, c.port, c.seq, payload))
		c.seq += uint32(len(payload))
		c.sent++
	}
	return trace
}

// runTrace pushes the trace through a fresh N-shard concurrent plane
// with the det filter on every stream and returns the per-stream
// output payload sequences.
func runTrace(t *testing.T, trace [][]byte, shards int) (map[filter.Key][][]byte, int) {
	t.Helper()
	cat := filter.NewCatalog()
	cat.Register("det", func() filter.Factory { return &detFilter{} })
	var mu sync.Mutex
	perStream := make(map[filter.Key][][]byte)
	total := 0
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: shards, Catalog: cat, Seed: 99, RingSize: 256,
		Sink: func(_ int, out [][]byte) {
			mu.Lock()
			defer mu.Unlock()
			for _, raw := range out {
				k, ok := filter.SteerKey(raw)
				if !ok {
					t.Errorf("unparseable output packet")
					continue
				}
				perStream[k] = append(perStream[k], append([]byte(nil), raw...))
				total++
			}
		},
	})
	defer pl.Close()
	pl.Command("load det")
	pl.Command("add det 0.0.0.0 0 0.0.0.0 0")
	for _, raw := range trace {
		pl.Dispatch(raw)
	}
	pl.Drain()
	return perStream, total
}

// --- batch-vs-proxy equivalence under control interleavings -------------------

// scriptStep is one step of a mixed traffic/control script: a packet
// to intercept or a control line to execute.
type scriptStep struct {
	raw []byte // packet, when non-nil
	cmd string // control line, when raw is nil
}

// buildScript interleaves a multi-flow packet trace with control-plane
// operations at pseudo-random points: exact-key add/delete of the det
// filter on individual flows, wildcard adds, library load/remove
// cycles, and merged read-only queries. Seeded, so every run of every
// mode executes byte-identical steps.
func buildScript(t testing.TB, flows, perFlow int, seed int64) []scriptStep {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var script []scriptStep
	script = append(script,
		scriptStep{cmd: "load det"},
		scriptStep{cmd: "add det 0.0.0.0 0 0.0.0.0 0"},
	)
	key := func(flow int) string {
		return fmt.Sprintf("11.11.10.99 %d 11.11.10.10 5001", 1000+flow)
	}
	type cursor struct {
		seq  uint32
		sent int
	}
	cur := make([]*cursor, flows)
	for i := range cur {
		cur[i] = &cursor{seq: 1}
	}
	sent := 0
	for sent < flows*perFlow {
		if rng.Intn(12) == 0 {
			// A control op lands between packets. All of these are
			// deterministic: their effect (including errors) depends
			// only on the per-stream packet/op sequence.
			flow := rng.Intn(flows)
			switch rng.Intn(5) {
			case 0:
				script = append(script, scriptStep{cmd: "add det " + key(flow)})
			case 1:
				script = append(script, scriptStep{cmd: "delete det " + key(flow)})
			case 2:
				script = append(script, scriptStep{cmd: "report det"})
			case 3:
				script = append(script, scriptStep{cmd: "streams"})
			case 4:
				// Full unload/reload cycle: drops every registration,
				// then re-arms the wildcard.
				script = append(script,
					scriptStep{cmd: "remove det"},
					scriptStep{cmd: "load det"},
					scriptStep{cmd: "add det 0.0.0.0 0 0.0.0.0 0"})
			}
			continue
		}
		flow := rng.Intn(flows)
		c := cur[flow]
		if c.sent == perFlow {
			continue
		}
		port := uint16(1000 + flow)
		payload := []byte(fmt.Sprintf("flow=%d seq=%d padpadpad", port, c.sent))
		script = append(script, scriptStep{raw: mkSeg(t, port, c.seq, payload)})
		c.seq += uint32(len(payload))
		c.sent++
		sent++
	}
	return script
}

// scriptResult is the observable outcome of running a script: the
// per-stream output packet log and every control line's output, in
// script order.
type scriptResult struct {
	perStream map[filter.Key][][]byte
	cmdOut    []string
	total     int
}

func detCatalog() *filter.Catalog {
	cat := filter.NewCatalog()
	cat.Register("det", func() filter.Factory { return &detFilter{} })
	return cat
}

// runScriptProxy executes the script on one proxy — the reference
// semantics.
func runScriptProxy(t *testing.T, script []scriptStep) scriptResult {
	t.Helper()
	p := proxy.New(netsim.New(sim.NewScheduler(7)).AddNode("proxy"), detCatalog())
	res := scriptResult{perStream: make(map[filter.Key][][]byte)}
	for _, st := range script {
		if st.raw == nil {
			res.cmdOut = append(res.cmdOut, p.Exec(st.cmd))
			continue
		}
		for _, out := range p.Intercept(st.raw, nil) {
			k, ok := filter.SteerKey(out)
			if !ok {
				t.Fatalf("unparseable reference output packet")
			}
			res.perStream[k] = append(res.perStream[k], append([]byte(nil), out...))
			res.total++
		}
	}
	return res
}

// runScriptConcurrent executes the script on a concurrent batched
// plane. Drain() before each control line pins the traffic/control
// order to the script order, exactly as one proxy executes it.
func runScriptConcurrent(t *testing.T, script []scriptStep, shards, batch int) scriptResult {
	t.Helper()
	var mu sync.Mutex
	res := scriptResult{perStream: make(map[filter.Key][][]byte)}
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: shards, Catalog: detCatalog(), Seed: 7, RingSize: 64,
		BatchSize: batch,
		Sink: func(_ int, out [][]byte) {
			mu.Lock()
			defer mu.Unlock()
			for _, raw := range out {
				k, ok := filter.SteerKey(raw)
				if !ok {
					t.Errorf("unparseable concurrent output packet")
					continue
				}
				res.perStream[k] = append(res.perStream[k], append([]byte(nil), raw...))
				res.total++
			}
		},
	})
	defer pl.Close()
	for _, st := range script {
		if st.raw == nil {
			pl.Drain()
			res.cmdOut = append(res.cmdOut, pl.Command(st.cmd))
			continue
		}
		pl.Dispatch(st.raw)
	}
	pl.Drain()
	return res
}

// TestBatchedEquivalentToInlineUnderControl is the batching tentpole's
// equivalence property: for a random interleaving of traffic and
// control-plane operations, the concurrent batched plane — at every
// shard count and batch size, including partial batches an idle worker
// takes itself or a quiesce seals — must emit exactly one proxy's
// per-stream event log, and every control line must produce the same
// output.
// Control mutations landing mid-batch, a stale negative-match cache
// surviving an epoch, or a partial batch lost at a quiesce would all
// break it.
func TestBatchedEquivalentToInlineUnderControl(t *testing.T) {
	for _, seed := range []int64{1, 23} {
		script := buildScript(t, 12, 40, seed)
		ref := runScriptProxy(t, script)
		if ref.total == 0 {
			t.Fatal("reference proxy produced no output; bad script")
		}
		for _, shards := range []int{1, 2, 4, 8} {
			for _, batch := range []int{1, 7, 64} {
				got := runScriptConcurrent(t, script, shards, batch)
				name := fmt.Sprintf("seed=%d shards=%d batch=%d", seed, shards, batch)
				if got.total != ref.total {
					t.Fatalf("%s: emitted %d packets, the proxy emitted %d", name, got.total, ref.total)
				}
				if len(got.cmdOut) != len(ref.cmdOut) {
					t.Fatalf("%s: %d command outputs, the proxy %d", name, len(got.cmdOut), len(ref.cmdOut))
				}
				for i := range ref.cmdOut {
					if got.cmdOut[i] != ref.cmdOut[i] {
						t.Fatalf("%s: command %d output diverges:\n got %q\nwant %q",
							name, i, got.cmdOut[i], ref.cmdOut[i])
					}
				}
				if len(got.perStream) != len(ref.perStream) {
					t.Fatalf("%s: %d streams, the proxy %d", name, len(got.perStream), len(ref.perStream))
				}
				for k, want := range ref.perStream {
					seq := got.perStream[k]
					if len(seq) != len(want) {
						t.Fatalf("%s stream %v: %d packets, want %d", name, k, len(seq), len(want))
					}
					for i := range want {
						if !bytes.Equal(seq[i], want[i]) {
							t.Fatalf("%s stream %v packet %d differs from the proxy's:\n got %q\nwant %q",
								name, k, i, seq[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestShardedOutputIsPerStreamOrderedInterleaving is the satellite-3
// property: for any packet trace, the sharded output at any N must be
// a per-stream-ordered interleaving of the N=1 output with identical
// byte payloads — sharding may reorder across streams, never within
// one, and must never alter bytes.
func TestShardedOutputIsPerStreamOrderedInterleaving(t *testing.T) {
	trace := buildTrace(t, 16, 50)
	ref, refTotal := runTrace(t, trace, 1)
	for _, n := range []int{2, 4, 8} {
		got, gotTotal := runTrace(t, trace, n)
		if gotTotal != refTotal {
			t.Fatalf("N=%d emitted %d packets, N=1 emitted %d", n, gotTotal, refTotal)
		}
		if len(got) != len(ref) {
			t.Fatalf("N=%d produced %d streams, N=1 produced %d", n, len(got), len(ref))
		}
		for k, want := range ref {
			seq := got[k]
			if len(seq) != len(want) {
				t.Fatalf("N=%d stream %v: %d packets, want %d", n, k, len(seq), len(want))
			}
			for i := range want {
				if !bytes.Equal(seq[i], want[i]) {
					t.Fatalf("N=%d stream %v packet %d differs from N=1:\n got %q\nwant %q",
						n, k, i, seq[i], want[i])
				}
			}
		}
	}
}
