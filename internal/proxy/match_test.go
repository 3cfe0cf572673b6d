package proxy

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// nopFactory registers without attaching any hooks, so the property
// test can churn the registry without building filter queues.
type nopFactory struct{ name string }

func (f nopFactory) Name() string                             { return f.name }
func (nopFactory) Description() string                        { return "registry churn stub" }
func (nopFactory) New(filter.Env, filter.Key, []string) error { return nil }

// failFactory always fails instantiation, for rollback tests.
type failFactory struct{}

func (failFactory) Name() string        { return "fail" }
func (failFactory) Description() string { return "always-failing stub" }
func (failFactory) New(filter.Env, filter.Key, []string) error {
	return errors.New("fail: refusing instantiation")
}

func newMatchProxy(t *testing.T) *Proxy {
	t.Helper()
	cat := filter.NewCatalog()
	cat.Register("nop", func() filter.Factory { return nopFactory{name: "nop"} })
	cat.Register("fail", func() filter.Factory { return failFactory{} })
	node := netsim.New(sim.NewScheduler(1)).AddNode("proxy")
	p := NewDetached(node, cat)
	if _, err := p.LoadFilter("nop"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadFilter("fail"); err != nil {
		t.Fatal(err)
	}
	return p
}

// refIndices is the reference match list: scan the registry in order
// with filter.Key.Matches.
func refIndices(p *Proxy, k filter.Key) []int32 {
	var out []int32
	for i, r := range p.registry {
		if r.key.Matches(k) {
			out = append(out, int32(i))
		}
	}
	return out
}

func sameIndices(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompiledMatchAgreesWithReference is the compiled-classifier
// property test: across random interleavings of add/delete on random
// exact and wild-card keys, the compiled program must agree with the
// naive registry scan on every lookup — both the boolean answer and
// the exact ordered set of matching registrations buildQueue would
// instantiate.
func TestCompiledMatchAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// A small universe so adds, deletes, and lookups collide often.
	addrs := []ip.Addr{0, ip.MustParseAddr("10.0.0.1"), ip.MustParseAddr("10.0.0.2")}
	ports := []uint16{0, 7, 9}
	randKey := func(exact bool) filter.Key {
		k := filter.Key{
			SrcIP: addrs[rng.Intn(len(addrs))], SrcPort: ports[rng.Intn(len(ports))],
			DstIP: addrs[rng.Intn(len(addrs))], DstPort: ports[rng.Intn(len(ports))],
		}
		if exact {
			// Lookup keys are real stream keys: no wild-card fields.
			k.SrcIP, k.DstIP = addrs[1+rng.Intn(len(addrs)-1)], addrs[1+rng.Intn(len(addrs)-1)]
			k.SrcPort, k.DstPort = ports[1+rng.Intn(len(ports)-1)], ports[1+rng.Intn(len(ports)-1)]
		}
		return k
	}

	p := newMatchProxy(t)
	var registered []filter.Key
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(10); {
		case op < 2: // add a (often wild-card) registration
			k := randKey(false)
			if err := p.AddFilter("nop", k, nil); err != nil {
				t.Fatal(err)
			}
			registered = append(registered, k)
		case op < 3 && len(registered) > 0: // delete a random registration
			j := rng.Intn(len(registered))
			if err := p.DeleteFilter("nop", registered[j]); err != nil {
				t.Fatal(err)
			}
			// DeleteFilter removes every registration with that exact
			// (name, key) pair; mirror that in the shadow list.
			k := registered[j]
			kept := registered[:0]
			for _, r := range registered {
				if r != k {
					kept = append(kept, r)
				}
			}
			registered = kept
		default: // lookup: compiled and reference matchers must agree
			k := randKey(true)
			want := len(refIndices(p, k)) > 0
			if got := p.program().Match(k); got != want {
				t.Fatalf("op %d: prog.Match(%v) = %v, reference = %v (registry %d entries)",
					i, k, got, want, len(p.registry))
			}
			if got, ref := p.program().AppendMatches(nil, k), refIndices(p, k); !sameIndices(got, ref) {
				t.Fatalf("op %d: prog.AppendMatches(%v) = %v, reference = %v", i, k, got, ref)
			}
		}
	}
}

// TestMissStormBuildsNoState replaces the old negCache mass-eviction
// test: the miss path must carry no per-key state at all, so a storm
// of distinct unmatched keys (far past the old 2^16 cache bound that
// used to trigger a full-cache discard and rescan cliff) leaves the
// proxy with nothing but a miss counter — and matching lookups still
// answer correctly afterwards.
func TestMissStormBuildsNoState(t *testing.T) {
	p := newMatchProxy(t)
	if err := p.AddFilter("nop", filter.Key{SrcPort: 9999}, nil); err != nil {
		t.Fatal(err)
	}
	const storm = 1<<16 + 4096
	for i := 0; i < storm; i++ {
		k := filter.Key{
			SrcIP: ip.AddrFrom4(10, byte(i>>16), byte(i>>8), byte(i)), SrcPort: 7,
			DstIP: ip.AddrFrom4(10, 0, 0, 1), DstPort: 80,
		}
		if q, _ := p.buildQueue(k); q != nil {
			t.Fatalf("key %v built a queue against a srcport-9999 registration", k)
		}
	}
	if got := p.Stats.RegistryMisses; got != storm {
		t.Fatalf("RegistryMisses = %d, want %d", got, storm)
	}
	if got := p.QueueCount(); got != 0 {
		t.Fatalf("miss storm left %d queues", got)
	}
	// A key matching the registration must still be found.
	if !p.program().Match(filter.Key{SrcIP: addr1(), SrcPort: 9999, DstIP: addr1(), DstPort: 80}) {
		t.Fatal("matching key reported unmatched after miss storm")
	}
}

func addr1() ip.Addr { return ip.MustParseAddr("10.0.0.1") }

// TestAddRebuildsProgram pins the rebuild rule: a key the program
// answers as unmatched must match as soon as a covering registration
// is added — there is no stale cached negative to invalidate, because
// AddFilter marks the program dirty and the next lookup recompiles it.
func TestAddRebuildsProgram(t *testing.T) {
	p := newMatchProxy(t)
	k := filter.Key{SrcIP: addr1(), SrcPort: 7, DstIP: addr1(), DstPort: 80}
	if p.program().Match(k) {
		t.Fatal("empty registry matched")
	}
	rebuilds := p.Stats.RegistryRebuilds
	if err := p.AddFilter("nop", filter.Key{DstPort: 80}, nil); err != nil {
		t.Fatal(err)
	}
	if !p.program().Match(k) {
		t.Fatal("program not rebuilt by AddFilter")
	}
	if got := p.Stats.RegistryRebuilds; got != rebuilds+1 {
		t.Fatalf("RegistryRebuilds moved %d -> %d across one add, want +1", rebuilds, got)
	}
}

// TestFailedAddRebuildsProgram covers the AddFilter rollback path: a
// failed exact-key instantiation leaves no registration behind, and the
// program compiled from the restored registry reads the key as
// unmatched again.
func TestFailedAddRebuildsProgram(t *testing.T) {
	p := newMatchProxy(t)
	k := filter.Key{SrcIP: addr1(), SrcPort: 7, DstIP: addr1(), DstPort: 80}
	if err := p.AddFilter("fail", k, nil); err == nil {
		t.Fatal("failing factory add succeeded")
	}
	if p.RegistrationCount() != 0 {
		t.Fatalf("failed add left %d registrations", p.RegistrationCount())
	}
	if p.program().Match(k) {
		t.Fatal("failed add left the key matched in the compiled program")
	}
	if q, _ := p.buildQueue(k); q != nil {
		t.Fatal("failed add left a buildable queue behind")
	}
}
