package proxy

import (
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/workload"
)

// lifecycleProxy is a detached proxy shard with a bus, for tests that look at the
// free lists; extra registers test filters beside the real ones.
func lifecycleProxy(t *testing.T, extra ...filter.Factory) (*Proxy, *sim.Scheduler, *obs.Bus) {
	t.Helper()
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	for _, f := range extra {
		f := f
		cat.Register(f.Name(), func() filter.Factory { return f })
	}
	sched := sim.NewScheduler(1)
	p := NewDetached(netsim.New(sched).AddNode("proxy"), cat)
	bus := obs.NewBus(sched, 0)
	p.SetObs(bus, nil)
	for _, f := range extra {
		if _, err := p.LoadFilter(f.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return p, sched, bus
}

// hookFilter attaches the hooks its test hands it, to the trigger key.
type hookFilter struct {
	name  string
	hooks func(env filter.Env, k filter.Key) filter.Hooks
}

func (f hookFilter) Name() string      { return f.name }
func (hookFilter) Description() string { return "lifecycle test filter" }
func (f hookFilter) New(env filter.Env, k filter.Key, _ []string) error {
	h := f.hooks(env, k)
	h.Filter, h.Priority = f.name, filter.Normal
	_, err := env.Attach(k, h)
	return err
}

var lifecycleKey = filter.Key{SrcIP: ip.AddrFrom4(10, 1, 0, 1), SrcPort: 80,
	DstIP: ip.AddrFrom4(10, 2, 0, 1), DstPort: 2000}

func lifecyclePacket(t *testing.T, k filter.Key, payload ...byte) []byte {
	t.Helper()
	seg := tcp.Segment{SrcPort: k.SrcPort, DstPort: k.DstPort, Seq: 1, Flags: tcp.FlagACK, Window: 65535, Payload: payload}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: k.SrcIP, Dst: k.DstIP}
	raw, err := h.Marshal(seg.Marshal(k.SrcIP, k.DstIP))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestStaleDetachAfterRemoveStream: a detach handle that outlives its
// queue must do nothing. RemoveStream used to close the attachment but
// leave it findable, so the old handle ran OnClose a second time, and
// — finding the dead queue empty — deleted whatever queue the key had
// by then and announced a second teardown.
func TestStaleDetachAfterRemoveStream(t *testing.T) {
	p, _, bus := lifecycleProxy(t)
	closed := 0
	detach, err := p.Attach(lifecycleKey, filter.Hooks{Filter: "old", OnClose: func() { closed++ }})
	if err != nil {
		t.Fatal(err)
	}
	p.RemoveStream(lifecycleKey)
	if _, err := p.Attach(lifecycleKey, filter.Hooks{Filter: "new"}); err != nil {
		t.Fatal(err)
	}
	detach()
	detach()
	if closed != 1 {
		t.Fatalf("OnClose ran %d times, want 1", closed)
	}
	if st := p.Streams(); len(st) != 1 || len(st[0].Filters) != 1 || st[0].Filters[0] != "new" {
		t.Fatalf("the key's rebuilt queue did not survive the stale handle: %+v", st)
	}
	if p.QueueCount() != 1 {
		t.Fatalf("QueueCount = %d, want 1", p.QueueCount())
	}
	if n := bus.Count("proxy", "queue-teardown"); n != 1 {
		t.Fatalf("%d queue-teardown events, want 1", n)
	}
}

// TestFreeListsBoundedByLiveSet drives three launcher→tcp storms through
// one proxy. Everything a storm builds comes back when its flows age
// out, the next storm is built from that, and so the free lists never
// hold more than the largest live set.
func TestFreeListsBoundedByLiveSet(t *testing.T) {
	p, sched, _ := lifecycleProxy(t)
	for _, cmd := range []string{"load tcp", "load launcher", "add launcher 0.0.0.0 0 0.0.0.0 0 tcp"} {
		if out := p.Exec(cmd); out != "" && out != "tcp\n" && out != "launcher\n" {
			t.Fatalf("%s: %q", cmd, out)
		}
	}
	c := workload.NewChurn(workload.ChurnConfig{DataPkts: 1, PayloadSize: 64})
	largest := 0
	for storm, flows := range []int{300, 500, 200} {
		c.Drive(flows, func(raw []byte) { p.Intercept(raw, nil) })
		if got := p.QueueCount(); got != int64(2*flows) {
			t.Fatalf("storm %d: %d live queues, want %d", storm, got, 2*flows)
		}
		sched.RunFor(30 * time.Second)
		if got := p.QueueCount(); got != 0 {
			t.Fatalf("storm %d: %d queues left after the close grace", storm, got)
		}
		largest = max(largest, 2*flows)
		for _, n := range []int{p.freeQueues.Len(), p.freeAtts.Len()} {
			if n < 2*flows || n > largest {
				t.Fatalf("storm %d: free lists hold %d queues and %d attachments, want what the storm returned (%d) and no more than the largest live set (%d)",
					storm, p.freeQueues.Len(), p.freeAtts.Len(), 2*flows, largest)
			}
		}
	}
}

// TestRecycledAttachmentComesBackClean: an attachment that collected
// strikes and was quarantined is recycled; whoever is attached next
// gets it with no strikes and not quarantined, and so keeps its hooks
// running.
func TestRecycledAttachmentComesBackClean(t *testing.T) {
	bomb := hookFilter{name: "bomb", hooks: func(filter.Env, filter.Key) filter.Hooks {
		return filter.Hooks{In: func(*filter.Packet) { panic("bomb") }}
	}}
	p, _, _ := lifecycleProxy(t, bomb)
	if err := p.AddFilter("bomb", lifecycleKey, nil); err != nil {
		t.Fatal(err)
	}
	raw := lifecyclePacket(t, lifecycleKey)
	for i := 0; i < QuarantineStrikes; i++ {
		p.Intercept(raw, nil)
	}
	if n := p.Stats.FilterQuarantines; n != 1 || p.freeAtts.Len() != 1 {
		t.Fatalf("%d quarantines, %d recycled attachments, want 1 and 1", n, p.freeAtts.Len())
	}

	other := lifecycleKey.Reverse()
	seen := 0
	if _, err := p.Attach(other, filter.Hooks{Filter: "count", In: func(*filter.Packet) { seen++ }}); err != nil {
		t.Fatal(err)
	}
	q, _ := p.queues.Get(other)
	a := q.attached[0]
	if p.freeAtts.Len() != 0 {
		t.Fatal("the next Attach did not reuse the recycled attachment")
	}
	if a.strikes != 0 || a.quarantined {
		t.Fatalf("recycled attachment came back with strikes=%d quarantined=%v", a.strikes, a.quarantined)
	}
	p.Intercept(lifecyclePacket(t, other), nil)
	if seen != 1 {
		t.Fatalf("the new owner's hook ran %d times, want 1", seen)
	}
}

// TestTeardownFromInsideHook: a hook may detach itself or remove its
// own stream while the proxy is iterating that queue. The interception
// finishes over what it started with, and nothing it can still see is
// recycled under it.
func TestTeardownFromInsideHook(t *testing.T) {
	for _, how := range []string{"detach", "remove"} {
		t.Run(how, func(t *testing.T) {
			var detachFirst func()
			after := 0
			p, _, _ := lifecycleProxy(t)
			var err error
			detachFirst, err = p.Attach(lifecycleKey, filter.Hooks{Filter: "first", Priority: filter.High,
				In: func(*filter.Packet) {
					if how == "detach" {
						detachFirst()
					} else {
						p.RemoveStream(lifecycleKey)
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Attach(lifecycleKey, filter.Hooks{Filter: "second", Priority: filter.Low,
				In: func(*filter.Packet) { after++ }}); err != nil {
				t.Fatal(err)
			}
			raw := lifecyclePacket(t, lifecycleKey)
			if out := p.Intercept(raw, nil); len(out) != 1 {
				t.Fatalf("packet lost: %d datagrams out", len(out))
			}
			if after != 1 {
				t.Fatalf("the lower-priority hook ran %d times on the packet in flight, want 1", after)
			}
			if n := p.freeQueues.Len() + p.freeAtts.Len(); n != 0 {
				t.Fatalf("%d structs of the running queue were recycled under the interception", n)
			}
			p.Intercept(raw, nil)
			if want := map[string]int{"detach": 2, "remove": 1}[how]; after != want {
				t.Fatalf("after the teardown the second hook has run %d times, want %d", after, want)
			}
		})
	}
}

// TestDeleteFilterWhoseCloseDetachesItsReverse: closing ttsf's forward
// attachment detaches its reverse one, which empties and drops the
// reverse queue while the delete command is still walking its list of
// keys. The command used to look that queue up again and crash on nil.
func TestDeleteFilterWhoseCloseDetachesItsReverse(t *testing.T) {
	for _, key := range []string{"10.1.0.1 80 10.2.0.1 2000", "10.2.0.1 2000 10.1.0.1 80"} {
		p, _, bus := lifecycleProxy(t)
		p.Exec("load ttsf")
		for _, cmd := range []string{"add ttsf " + key, "delete ttsf " + key} {
			if out := p.Exec(cmd); out != "" {
				t.Fatalf("%s: %q", cmd, out)
			}
		}
		if p.QueueCount() != 0 || bus.Count("proxy", "queue-teardown") != 2 {
			t.Fatalf("delete ttsf %s: %d queues left, %d teardown events, want 0 and 2",
				key, p.QueueCount(), bus.Count("proxy", "queue-teardown"))
		}
	}
}
