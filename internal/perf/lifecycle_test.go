package perf

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestFlowLifecycleAllocs gates the first-sight flow lifecycle, set-up
// to teardown: classify, launcher spawn, tcp instance, two attachments,
// the queue-build event, the close-grace timer, two queue teardowns and
// their events. Queues, attachments and tcp instances are recycled, the
// bus records each event's stream key and numbers as values and the
// scheduler recycles its events, so what is left per flow is the two
// detach handles that Attach returns: at most 2 allocations, where 45
// were made when every key went through fmt and every struct through
// the allocator.
func TestFlowLifecycleAllocs(t *testing.T) {
	sys := core.NewSystem(core.Config{Seed: 17})
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand("add launcher 0.0.0.0 0 0.0.0.0 0 tcp")
	hook, in := sys.ProxyHost.PacketHook(), sys.ProxyHost.Ifaces()[0]

	// Every batch is fresh keys; build them all first, so the measured
	// function allocates nothing of its own.
	const batch, runs, bound = 256, 8, 2
	c := workload.NewChurn(workload.ChurnConfig{DataPkts: 2, PayloadSize: 64})
	batches := make([][][]byte, runs+1) // AllocsPerRun warms up with one extra call
	for b := range batches {
		for i := 0; i < batch; i++ {
			batches[b] = append(batches[b], c.NextFlow()...)
		}
	}
	next := 0
	perRun := testing.AllocsPerRun(runs, func() {
		for _, raw := range batches[next] {
			hook(raw, in)
		}
		next++
		sys.Sched.RunFor(6 * time.Second) // past the tcp filter's close grace
	})
	if q := sys.Proxy.QueueCount(); q != 0 {
		t.Fatalf("%d queues left after the last clock advance", q)
	}
	if fs := sys.Proxy.FlowStats(); fs.Closed != int64(len(batches)*batch) {
		t.Fatalf("flow log closed %d flows of %d", fs.Closed, len(batches)*batch)
	}
	if perFlow := perRun / batch; perFlow > bound {
		t.Fatalf("a flow's lifecycle allocates %.2f times, want at most %d", perFlow, bound)
	} else {
		t.Logf("%.2f allocations per flow lifecycle", perFlow)
	}
}
