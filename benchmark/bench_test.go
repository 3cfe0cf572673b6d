package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/tcp"
)

func streamHash(spec trafficSpec, seed int64, n int) [32]byte {
	g := newGenerator(spec, seed, 1024)
	h := sha256.New()
	for i := 0; i < n; i++ {
		raw, _ := g.next()
		h.Write(raw)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func TestGeneratorSeeded(t *testing.T) {
	for _, w := range []*planeWorkload{&fwdSmall, &editBulk} {
		a, b, c := streamHash(w.spec, 7, 20000), streamHash(w.spec, 7, 20000), streamHash(w.spec, 8, 20000)
		if a != b {
			t.Errorf("%s: the same seed gave two packet streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same packet stream", w.name)
		}
	}
	if churnKey(7, 0) == churnKey(8, 0) {
		t.Error("churn: seeds 7 and 8 start from the same key")
	}
}

func checksumsOK(raw []byte) bool {
	h, seg, err := ip.Unmarshal(raw)
	return err == nil && ip.VerifyChecksum(raw) && tcp.VerifyChecksum(h.Src, h.Dst, seg)
}

// Every datagram must stay checksum-valid while its buffer is patched
// in place again and again, across a 2^32 sequence wrap.
func TestPatchAcrossWrap(t *testing.T) {
	for _, w := range []*planeWorkload{&fwdSmall, &editBulk} {
		g := newGenerator(w.spec, 3, 1024)
		for f := range g.flows {
			fl := &g.flows[f]
			start := uint32(math.MaxUint32) - uint32(40*w.spec.payload) - uint32(f)
			fl.isn, fl.seq, fl.mod, fl.ackNext = start, start, start, start
		}
		want := make([]uint32, w.spec.flows)
		for f := range want {
			want[f] = g.flows[f].isn
		}
		wrapped := false
		for i := 0; i < 20*len(g.pool); i++ {
			raw, _ := g.next()
			if !checksumsOK(raw) {
				t.Fatalf("%s: packet %d has a bad checksum after patching", w.name, i)
			}
			if len(raw) > hdrLen {
				f := int(binary.BigEndian.Uint16(raw[offSrcPort:])) - portBase
				seq := binary.BigEndian.Uint32(raw[offSeq:])
				if seq != want[f] {
					t.Fatalf("%s: flow %d packet %d: seq %d, want %d", w.name, f, i, seq, want[f])
				}
				want[f] = seq + uint32(w.spec.payload)
				wrapped = wrapped || want[f] < seq
			}
		}
		if !wrapped {
			t.Fatalf("%s: no flow wrapped", w.name)
		}
	}
}

func TestChurnPool(t *testing.T) {
	pool := buildChurnPool(7, churnPool)
	seen := map[filter.Key]bool{}
	for i := range pool {
		k := churnKey(7, i)
		if seen[k] || seen[k.Reverse()] {
			t.Fatalf("flow %d repeats key %v", i, k)
		}
		seen[k] = true
		for p, raw := range pool[i] {
			pkt, err := filter.Parse(raw)
			if err != nil || pkt.TCP == nil || !checksumsOK(raw) {
				t.Fatalf("flow %d packet %d does not parse clean", i, p)
			}
			if pkt.Key != k && pkt.Key != k.Reverse() {
				t.Fatalf("flow %d packet %d carries key %v, want %v", i, p, pkt.Key, k)
			}
			pkt.Release()
		}
	}
}

// The shrink service and the generator must agree on the modified
// sequence space: through tcp+ttsf+shrink, every lagged ACK the
// generator writes in that space has to come out acknowledging exactly
// the original bytes the sink expects, over 10^4 segments per flow.
func TestShrinkAgreesWithGenerator(t *testing.T) {
	w := editBulk
	w.spec.flows = 2
	g := newGenerator(w.spec, 11, 4096)
	s := newSink(&w, g, 1)
	s.verify.Store(true)
	rg := newRig(11, w.commands(chainFull))
	n := 10_000 * w.spec.flows * (w.spec.ackEvery + 1) / w.spec.ackEvery
	for i := 0; i < n; i += 64 {
		s.deliver(0, rg.run(fill(g, nil, 64)))
	}
	sh := &s.shards[0]
	if s.failures() != 0 {
		t.Fatalf("failures: seq %d checksum %d payload %d ack %d shape %d",
			sh.seqBreak, sh.badSum, sh.badPayload, sh.badAck, sh.badShape)
	}
	if got := int(s.flows[0].nData); got < 10_000 {
		t.Fatalf("only %d segments per flow went through", got)
	}
}

// A short run of each concurrent-plane workload must come out clean:
// it covers rules, generator, plane and sink together.
func TestPlaneWorkloadsClean(t *testing.T) {
	// Three shards, as on a host with four CPUs or more: flows spread
	// over the shards and every shard's sink state is its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, w := range []*planeWorkload{&fwdSmall, &editBulk} {
		h, err := buildPlane(w, 5, chainFull)
		if err != nil {
			t.Fatal(err)
		}
		h.verifyPass()
		h.closedLoop(50 * time.Millisecond)
		attempted, failed, notes := h.finish()
		if failed != 0 || attempted < verifyPkts {
			t.Errorf("%s: %d of %d failed: %v", w.name, failed, attempted, notes)
		}
	}
}

func TestChurnClean(t *testing.T) {
	r := buildChurn(5)
	r.verify = true
	r.run(50 * time.Millisecond)
	if flows, failed, notes := r.finish(); failed != 0 || flows < churnAdvance {
		t.Errorf("%d of %d flows failed: %v", failed, flows, notes)
	}
}

// spread must be the quartile distance of Python's
// statistics.quantiles(values, n=4) over the median.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{12, 15, 11, 19, 14, 13, 18, 30, 16, 17}
	// statistics.quantiles(xs, n=4) == [12.75, 15.5, 18.25]; median 15.5
	if got, want := spread(xs), (18.25-12.75)/15.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := h.quantile(q), q*100_000; math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
}

// BENCHMARK.json and the metric tables in main.go must name the same
// workloads and metrics with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type m struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in main.go", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []m, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in main.go", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in main.go",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
