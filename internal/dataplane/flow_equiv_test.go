package dataplane_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildFlowTrace builds a flow-log workload: a churn storm where every
// third flow is left open (its FIN pair is withheld), so the resulting
// records span both the active table and the closed ring. Fresh keys
// per flow make the renderer's sort key total even with every private
// shard clock at zero.
func buildFlowTrace(flows int) [][]byte {
	c := workload.NewChurn(workload.ChurnConfig{DataPkts: 2, PayloadSize: 64})
	var trace [][]byte
	for i := 0; i < flows; i++ {
		pkts := c.NextFlow()
		if i%3 == 0 {
			pkts = pkts[:len(pkts)-2] // withhold both FINs: flow stays active
		}
		trace = append(trace, pkts...)
	}
	return trace
}

// TestFlowRecordsShardMergeEquivalence is the shard-merge property:
// for the same traffic, the merged "flows" output of an N-shard
// concurrent plane must be byte-equal to one proxy's, and the merged
// flow counters must sum to the same totals. Direction-normalized
// steering keeps each flow whole on one shard, so any divergence means
// a flow was split, double-counted, or lost in the merge.
func TestFlowRecordsShardMergeEquivalence(t *testing.T) {
	trace := buildFlowTrace(120)

	ref := proxy.New(netsim.New(sim.NewScheduler(7)).AddNode("proxy"), detCatalog())
	for _, raw := range trace {
		ref.Intercept(raw, nil)
	}
	refOut, refStats := ref.Exec("flows 1000"), fmt.Sprintf("%+v", ref.FlowStats())
	if refOut == "" {
		t.Fatal("reference flows output empty")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
			Shards: shards, Catalog: detCatalog(), Seed: 7, RingSize: 64,
			Sink: func(_ int, out [][]byte) { mu.Lock(); mu.Unlock() },
		})
		for _, raw := range trace {
			pl.Dispatch(raw)
		}
		pl.Drain()
		out := pl.Command("flows 1000")
		stats := fmt.Sprintf("%+v", pl.FlowStats())
		pl.Close()
		if out != refOut {
			t.Fatalf("concurrent %d-shard flows output diverges from one proxy's:\n got %q\nwant %q", shards, out, refOut)
		}
		if stats != refStats {
			t.Fatalf("concurrent %d-shard FlowStats %s, want %s", shards, stats, refStats)
		}
	}
}
