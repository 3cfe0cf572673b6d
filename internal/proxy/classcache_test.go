package proxy

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// The flow-tag lookup cache: a known flow's packets take their queue,
// or their "no registration matches", from the flow record's tag. These
// tests pin that every event that changes the answer reaches the next
// packet, and that the cached path answers as the uncached one would.

// cacheRig is a detached proxy with a "probe" filter whose In hook
// records what ran: per packet key, how many times, and the queue the
// proxy was running (the queue it used for the packet).
type cacheRig struct {
	t       *testing.T
	p       *Proxy
	advance func(time.Duration)

	runs  map[filter.Key]int
	used  *queue
	wrong int // probe runs on a packet of another key than its own
	seq   uint32
	news  int // calls of the "empty" factory
}

func newCacheRig(t *testing.T, extra ...filter.Factory) *cacheRig {
	t.Helper()
	r := &cacheRig{t: t, runs: map[filter.Key]int{}, seq: 1}
	probe := hookFilter{name: "probe", hooks: func(env filter.Env, k filter.Key) filter.Hooks {
		return filter.Hooks{In: func(pkt *filter.Packet) {
			r.runs[pkt.Key]++
			r.used = r.p.running
			if pkt.Key != k {
				r.wrong++
			}
		}}
	}}
	empty := countingFactory{name: "empty", news: &r.news}
	p, sched, _ := lifecycleProxy(t, append([]filter.Factory{probe, empty, failFactory{}}, extra...)...)
	r.p = p
	r.advance = func(d time.Duration) { sched.RunFor(d) }
	for _, name := range []string{"tcp", "launcher"} {
		if _, err := p.LoadFilter(name); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// countingFactory matches where it is registered but attaches nothing,
// counting its instantiations.
type countingFactory struct {
	name string
	news *int
}

func (f countingFactory) Name() string      { return f.name }
func (countingFactory) Description() string { return "attaches nothing" }
func (f countingFactory) New(filter.Env, filter.Key, []string) error {
	*f.news++
	return nil
}

// send intercepts one segment of k carrying payload bytes (so it opens
// or keeps the flow record) and the given flags.
func (r *cacheRig) send(k filter.Key, flags byte, payload int) {
	r.t.Helper()
	seg := tcp.Segment{SrcPort: k.SrcPort, DstPort: k.DstPort, Seq: r.seq, Ack: 1,
		Flags: flags, Window: 65535, Payload: make([]byte, payload)}
	r.seq += uint32(payload) + 1
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: k.SrcIP, Dst: k.DstIP}
	raw, err := h.Marshal(seg.Marshal(k.SrcIP, k.DstIP))
	if err != nil {
		r.t.Fatal(err)
	}
	r.used = nil
	r.p.InterceptAppend(raw, nil, nil)
}

func (r *cacheRig) data(k filter.Key) { r.send(k, tcp.FlagACK, 10) }

func (r *cacheRig) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

// fresh is the uncached answer for k: the queue table, then
// buildQueue, with the miss counter left as it was. miss reports that
// no queue exists and no registration matches.
func (r *cacheRig) fresh(k filter.Key) (q *queue, miss bool) {
	if q, _ = r.p.queues.Get(k); q != nil {
		return q, false
	}
	misses := r.p.Stats.RegistryMisses
	q, matched := r.p.buildQueue(k)
	r.p.Stats.RegistryMisses = misses
	return q, !matched
}

var (
	cacheKey  = lifecycleKey
	cacheKey2 = filter.Key{SrcIP: lifecycleKey.SrcIP, SrcPort: 81, DstIP: lifecycleKey.DstIP, DstPort: 2000}
)

// TestFlowTagCoherence: for each event that changes the lookup's
// answer for a flow whose answer is cached in its tag, the flow's next
// packet sees the new answer.
func TestFlowTagCoherence(t *testing.T) {
	k, k2 := cacheKey, cacheKey2
	for _, c := range []struct {
		name string
		run  func(r *cacheRig)
	}{
		{"wild-card add after a cached miss", func(r *cacheRig) {
			r.data(k)
			r.data(k)
			r.must(r.p.AddFilter("probe", filter.Key{DstPort: k.DstPort}, nil))
			r.data(k)
			if r.runs[k] != 1 {
				t.Fatalf("probe ran %d times after the wild-card add, want 1", r.runs[k])
			}
		}},
		{"delete after a cached hit", func(r *cacheRig) {
			r.must(r.p.AddFilter("probe", k, nil))
			r.data(k)
			r.data(k)
			r.must(r.p.DeleteFilter("probe", k))
			// The torn-down queue is the next one Attach takes off the
			// free list: a stale tag would now run k2's hooks on k.
			r.must(r.p.AddFilter("probe", k2, nil))
			r.data(k)
			if r.runs[k] != 2 || r.wrong != 0 {
				t.Fatalf("after delete: probe ran %d times on k, %d on a foreign packet; want 2, 0", r.runs[k], r.wrong)
			}
		}},
		{"RemoveStream after a cached hit", func(r *cacheRig) {
			r.must(r.p.AddFilter("probe", k, nil))
			r.data(k)
			r.data(k)
			r.p.RemoveStream(k)
			r.must(r.p.AddFilter("probe", k2, nil))
			r.data(k) // the exact registration rebuilds k's queue
			if r.runs[k] != 3 || r.wrong != 0 || r.p.QueueCount() != 2 {
				t.Fatalf("after RemoveStream: probe ran %d times on k, %d foreign, %d queues; want 3, 0, 2",
					r.runs[k], r.wrong, r.p.QueueCount())
			}
		}},
		{"tcp-filter teardown after a cached hit", func(r *cacheRig) {
			r.must(r.p.AddFilter("tcp", k, nil))
			r.must(r.p.AddFilter("probe", k, nil))
			r.data(k)
			r.send(k, tcp.FlagFIN|tcp.FlagACK, 0)
			r.send(k.Reverse(), tcp.FlagFIN|tcp.FlagACK, 0) // closes the flow record
			r.data(k)                                       // reopens it inside the grace: a cached hit
			r.data(k)
			r.advance(6 * time.Second) // the tcp filter tears both queues down
			if r.p.QueueCount() != 0 {
				t.Fatalf("%d queues after the teardown", r.p.QueueCount())
			}
			r.data(k) // the exact registrations rebuild the queue
			if r.runs[k] != 5 || r.p.QueueCount() != 2 {
				t.Fatalf("after teardown: probe ran %d times, %d queues; want 5, 2", r.runs[k], r.p.QueueCount())
			}
		}},
		{"launcher spawn attaches the reverse key after a cached miss", func(r *cacheRig) {
			r.must(r.p.AddFilter("launcher", filter.Key{SrcIP: k.SrcIP}, []string{"tcp"}))
			r.data(k.Reverse())
			r.data(k.Reverse())
			r.data(k) // spawns tcp on k, which attaches k.Reverse() too
			filtered := r.p.Stats.Filtered
			r.data(k.Reverse())
			if r.p.Stats.Filtered != filtered+1 {
				t.Fatal("the reverse side's packet missed the queue the launcher's spawn attached")
			}
		}},
		{"failed add rolls back", func(r *cacheRig) {
			r.data(k)
			if err := r.p.AddFilter("fail", k, nil); err == nil {
				t.Fatal("failing add succeeded")
			}
			misses := r.p.Stats.RegistryMisses
			r.data(k)
			if r.p.Stats.RegistryMisses != misses+1 || r.p.QueueCount() != 0 {
				t.Fatalf("after the rollback: misses %d -> %d, %d queues; want +1, 0",
					misses, r.p.Stats.RegistryMisses, r.p.QueueCount())
			}
		}},
		{"add that attaches, then fails", func(r *cacheRig) {
			r.data(k)
			r.data(k)
			if err := r.p.AddFilter("halfway", k, nil); err == nil {
				t.Fatal("halfway add succeeded")
			}
			r.data(k) // its rolled-back registration left a live attachment
			if r.runs[k] != 1 {
				t.Fatalf("probe ran %d times on the attachment the failed add left, want 1", r.runs[k])
			}
		}},
		{"quarantine tombstone fails open and stays cached", func(r *cacheRig) {
			r.must(r.p.AddFilter("bomb", k, nil))
			for i := 0; i < 10; i++ {
				r.data(k)
			}
			if r.p.Stats.HookPanics != QuarantineStrikes || r.p.Stats.FilterQuarantines != 1 {
				t.Fatalf("%d panics, %d quarantines; want %d, 1",
					r.p.Stats.HookPanics, r.p.Stats.FilterQuarantines, QuarantineStrikes)
			}
			if q, _ := r.p.queues.Get(k); q == nil || len(q.attached) != 0 {
				t.Fatal("no empty tombstone queue left on the stream")
			}
		}},
		{"a match that attaches nothing reruns its factory", func(r *cacheRig) {
			r.must(r.p.AddFilter("empty", filter.Key{DstPort: k.DstPort}, nil))
			for i := 0; i < 5; i++ {
				r.data(k)
			}
			if r.news != 5 || r.p.Stats.RegistryMisses != 0 {
				t.Fatalf("factory ran %d times, %d misses; want 5, 0", r.news, r.p.Stats.RegistryMisses)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newCacheRig(t, bombFilter{}, halfwayFilter{})
			c.run(r)
		})
	}
}

// bombFilter attaches a hook that always panics.
type bombFilter struct{}

func (bombFilter) Name() string        { return "bomb" }
func (bombFilter) Description() string { return "always panics" }
func (bombFilter) New(env filter.Env, k filter.Key, _ []string) error {
	_, err := env.Attach(k, filter.Hooks{Filter: "bomb", In: func(*filter.Packet) { panic("bomb") }})
	return err
}

// halfwayFilter attaches the probe's hooks through the proxy's pool,
// then fails.
type halfwayFilter struct{}

func (halfwayFilter) Name() string        { return "halfway" }
func (halfwayFilter) Description() string { return "attaches, then fails" }
func (halfwayFilter) New(env filter.Env, k filter.Key, _ []string) error {
	if err := env.Spawn("probe", k, nil); err != nil {
		return err
	}
	return errors.New("halfway: failing after the attach")
}

// TestRegistryMissesCountEveryPacket: a cached miss still counts, so
// N packets of one unserviced flow are N misses (the benchmark's
// plane checks misses = attempted - filtered), and the match program
// is compiled at most once for them.
func TestRegistryMissesCountEveryPacket(t *testing.T) {
	r := newCacheRig(t)
	r.must(r.p.AddFilter("probe", cacheKey2, nil))
	misses, rebuilds := r.p.Stats.RegistryMisses, r.p.Stats.RegistryRebuilds
	const n = 100
	for i := 0; i < n; i++ {
		r.data(cacheKey)
	}
	if got := r.p.Stats.RegistryMisses - misses; got != n {
		t.Fatalf("%d packets of an unserviced flow counted %d misses", n, got)
	}
	if got := r.p.Stats.RegistryRebuilds - rebuilds; got > 1 {
		t.Fatalf("%d packets of an unserviced flow recompiled the program %d times", n, got)
	}
}

// TestFlowTagParity interleaves traffic on a few streams (data, FIN,
// RST, pure ACKs, idle gaps) with random control mutations, and checks
// after every packet that the queue the proxy ran, and whether it
// counted a miss, is what the uncached lookup answers.
func TestFlowTagParity(t *testing.T) {
	r := newCacheRig(t)
	rng := rand.New(rand.NewSource(59))
	var keys []filter.Key
	for port := uint16(80); port < 83; port++ {
		k := filter.Key{SrcIP: cacheKey.SrcIP, SrcPort: port, DstIP: cacheKey.DstIP, DstPort: 2000}
		keys = append(keys, k, k.Reverse())
	}
	wilds := []filter.Key{{SrcPort: 81}, {DstPort: 2000}, {SrcIP: cacheKey.DstIP}}
	pick := func(ks []filter.Key) filter.Key { return ks[rng.Intn(len(ks))] }
	var detaches []func()
	for step := 0; step < 20000; step++ {
		switch rng.Intn(40) {
		case 0:
			r.p.AddFilter("probe", pick(keys), nil)
		case 1:
			r.p.AddFilter("probe", pick(wilds), nil)
		case 2:
			r.p.AddFilter("empty", pick(append(wilds, keys...)), nil)
		case 3:
			r.p.AddFilter("fail", pick(keys), nil)
		case 4:
			for _, name := range []string{"probe", "empty"} {
				r.p.DeleteFilter(name, pick(append(wilds, keys...)))
			}
		case 5:
			r.p.RemoveStream(pick(keys))
		case 6:
			k := pick(keys)
			d, err := r.p.Attach(k, filter.Hooks{Filter: "probe", In: func(pkt *filter.Packet) {
				r.runs[pkt.Key]++
				r.used = r.p.running
				if pkt.Key != k {
					r.wrong++
				}
			}})
			r.must(err)
			detaches = append(detaches, d)
		case 7:
			if len(detaches) > 0 {
				i := rng.Intn(len(detaches))
				detaches[i]()
				detaches = append(detaches[:i], detaches[i+1:]...)
			}
		case 8:
			r.advance(61 * time.Second) // idle past the flow log's timeout
		}
		k := pick(keys)
		misses := r.p.Stats.RegistryMisses
		switch n := rng.Intn(20); {
		case n == 0:
			r.send(k, tcp.FlagRST, 0)
		case n == 1:
			r.send(k, tcp.FlagFIN|tcp.FlagACK, 0)
		case n < 4:
			r.send(k, tcp.FlagACK, 0) // a pure ACK opens no record
		default:
			r.data(k)
		}
		want, miss := r.fresh(k)
		if want != nil && len(want.attached) == 0 {
			want = nil // an empty queue runs nothing
		}
		if r.used != want || r.wrong != 0 {
			t.Fatalf("step %d, key %v: the proxy ran queue %p (foreign runs %d), the uncached lookup answers %p",
				step, k, r.used, r.wrong, want)
		}
		if counted := r.p.Stats.RegistryMisses - misses; counted != map[bool]int64{true: 1}[miss] {
			t.Fatalf("step %d, key %v: counted %d misses, the uncached lookup says miss=%v", step, k, counted, miss)
		}
	}
}
