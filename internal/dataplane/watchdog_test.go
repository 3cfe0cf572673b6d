package dataplane_test

import (
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
)

// TestWatchdogDetectsInjectedStall wedges one shard of a concurrent
// plane and checks the watchdog flags it while backlog accumulates,
// then clears the flag once the shard resumes and drains. The 32
// packets are fewer than a batch, so they wait unsealed in the open
// arena: the watchdog has to count that as backlog.
func TestWatchdogDetectsInjectedStall(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{Shards: 1, Catalog: cat, Seed: 1})
	defer pl.Close()
	stop := pl.StartWatchdog(10 * time.Millisecond)
	defer stop()

	pl.InjectStall(0, 300*time.Millisecond)
	// Give the shard a moment to pick up the stall, then pile backlog
	// behind the wedged goroutine.
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 32; i++ {
		pl.Dispatch(mkSeg(t, uint16(7000+i), 1000, []byte("stall probe")))
	}

	flagged := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(pl.StalledShards()) > 0 {
			flagged = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !flagged {
		t.Fatal("watchdog never flagged the wedged shard")
	}
	if pl.WatchdogTrips() == 0 {
		t.Fatal("watchdog trip not counted")
	}

	// Recovery: the stall expires, the shard drains, the flag clears.
	pl.Drain()
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(pl.StalledShards()) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("stall flag stuck after recovery: %v", pl.StalledShards())
}

// TestWatchdogQuietOnHealthyPlane pins the no-false-positive side: a
// plane processing traffic normally must never trip the watchdog. The
// interval is large against a scheduler quantum, so a shard goroutine
// the host keeps off-CPU for a while is not mistaken for a wedged one;
// traffic runs across several looks.
func TestWatchdogQuietOnHealthyPlane(t *testing.T) {
	const interval = 40 * time.Millisecond
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{Shards: 2, Catalog: cat, Seed: 2})
	defer pl.Close()
	stop := pl.StartWatchdog(interval)
	defer stop()

	seq := uint32(1000)
	for end := time.Now().Add(5 * interval); time.Now().Before(end); {
		for i := 0; i < 100; i++ {
			pl.Dispatch(mkSeg(t, uint16(6000+i%16), seq, []byte("healthy traffic")))
			seq++
		}
		time.Sleep(time.Millisecond)
	}
	pl.Drain()
	if n := pl.WatchdogTrips(); n != 0 {
		t.Fatalf("watchdog tripped %d times on a healthy plane", n)
	}
	if s := pl.StalledShards(); len(s) != 0 {
		t.Fatalf("healthy shards flagged: %v", s)
	}
}

// slowFilter sleeps on every outbound data packet — a filter whose
// per-packet cost dwarfs the watchdog interval, so one full batch
// takes many intervals to grind through.
type slowFilter struct{ delay time.Duration }

func (*slowFilter) Name() string              { return "slow" }
func (*slowFilter) Priority() filter.Priority { return filter.Low }
func (*slowFilter) Description() string       { return "per-packet delay (test)" }

func (f *slowFilter) New(env filter.Env, k filter.Key, args []string) error {
	_, err := env.Attach(k, filter.Hooks{
		Filter: "slow", Priority: filter.Low,
		Out: func(pkt *filter.Packet) { time.Sleep(f.delay) },
	})
	return err
}

// TestWatchdogNoSpuriousTripOnLargeBatch: a shard grinding through a
// large in-flight batch — slower per batch than several watchdog
// intervals, with more backlog sealed behind it — is making progress
// packet by packet and must never be flagged. A watchdog measuring
// completed batches instead of batch progress would trip here.
func TestWatchdogNoSpuriousTripOnLargeBatch(t *testing.T) {
	const batch = 64
	cat := filter.NewCatalog()
	cat.Register("slow", func() filter.Factory { return &slowFilter{delay: 3 * time.Millisecond} })
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 1, Catalog: cat, Seed: 4, RingSize: 8,
		BatchSize: batch,
	})
	defer pl.Close()
	pl.Command("load slow")
	pl.Command("add slow 0.0.0.0 0 0.0.0.0 0")

	// An idle shard takes each packet as it comes, so the two full
	// batches are built behind a short wedge: the producer seals them at
	// the batch size. The wedge ends before the watchdog's first look.
	pl.InjectStall(0, 30*time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 2*batch; i++ {
		pl.Dispatch(mkSeg(t, 9000, uint32(1+i), []byte("slow grind")))
	}
	stop := pl.StartWatchdog(40 * time.Millisecond)
	defer stop()

	// The first batch is ground at ~3ms/packet (~190ms/batch, ~5
	// watchdog intervals) while the second sits in the ring as visible
	// backlog the whole time.
	pl.Drain()
	if n := pl.WatchdogTrips(); n != 0 {
		t.Fatalf("watchdog tripped %d times on a shard grinding a large batch", n)
	}
	if s := pl.StalledShards(); len(s) != 0 {
		t.Fatalf("grinding shard left flagged: %v", s)
	}
	if got := pl.Shard(0).Stats.Intercepted.Load(); got != 2*batch {
		t.Fatalf("processed %d packets, want %d", got, 2*batch)
	}
}

// TestWatchdogInlineNoop: inline planes cannot stall independently of
// the caller, so the watchdog must be inert there.
func TestWatchdogInlineNoop(t *testing.T) {
	pl := standalonePlane(t, 2)
	stop := pl.StartWatchdog(time.Millisecond)
	stop()
	pl.InjectStall(0, time.Hour) // must not block or wedge anything
	if s := pl.StalledShards(); len(s) != 0 {
		t.Fatalf("inline plane reports stalled shards: %v", s)
	}
}
