package faults

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// injRig is a bare scheduler + two-node link for injector unit tests.
type injRig struct {
	sched *sim.Scheduler
	bus   *obs.Bus
	link  *netsim.Link
}

func newInjRig(t *testing.T) *injRig {
	t.Helper()
	s := sim.NewScheduler(17)
	n := netsim.New(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l := n.Connect(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"),
		netsim.LinkConfig{Bandwidth: 1e6, Delay: time.Millisecond})
	return &injRig{sched: s, bus: obs.NewBus(s, 256), link: l}
}

// faultEvents returns the kinds of all "faults" events on the bus, in
// emission order.
func faultEvents(b *obs.Bus) []string {
	var kinds []string
	for _, e := range b.Events() {
		if e.Subsys == "faults" {
			kinds = append(kinds, e.Kind)
		}
	}
	return kinds
}

func TestFlapLinkDownThenUp(t *testing.T) {
	r := newInjRig(t)
	inj := NewInjector(r.sched, r.bus)
	inj.FlapLink("l", r.link, time.Second, 500*time.Millisecond)

	r.sched.RunFor(1100 * time.Millisecond)
	if !r.link.Down() {
		t.Fatal("link not down during the scheduled outage")
	}
	r.sched.RunFor(time.Second)
	if r.link.Down() {
		t.Fatal("link still down after the outage elapsed")
	}
	want := []string{"link-down", "link-up"}
	if got := faultEvents(r.bus); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fault events = %v, want %v", got, want)
	}
}

func TestPartitionABOnlyOneDirection(t *testing.T) {
	r := newInjRig(t)
	inj := NewInjector(r.sched, r.bus)
	inj.PartitionAB("l", r.link, time.Second, 500*time.Millisecond)

	r.sched.RunFor(1100 * time.Millisecond)
	if !r.link.DownAB() || r.link.DownBA() {
		t.Fatalf("partition state AB=%v BA=%v, want AB-only", r.link.DownAB(), r.link.DownBA())
	}
	r.sched.RunFor(time.Second)
	if r.link.Down() {
		t.Fatal("link not healed after the partition elapsed")
	}
}

func TestDegradeLinkRestoresPreviousQuality(t *testing.T) {
	r := newInjRig(t)
	inj := NewInjector(r.sched, r.bus)
	inj.DegradeLink("l", r.link, time.Second, 500*time.Millisecond,
		64_000, netsim.Bernoulli{P: 0.5})

	r.sched.RunFor(1100 * time.Millisecond)
	if bw := r.link.ConfigAB().Bandwidth; bw != 64_000 {
		t.Fatalf("degraded bandwidth = %d, want 64000", bw)
	}
	if m := r.link.ConfigAB().Loss; m != (netsim.Bernoulli{P: 0.5}) {
		t.Fatalf("degraded loss model = %#v, want Bernoulli{P: 0.5}", m)
	}
	r.sched.RunFor(time.Second)
	if bw := r.link.ConfigAB().Bandwidth; bw != 1e6 {
		t.Fatalf("restored bandwidth = %d, want 1000000", bw)
	}
	// Connect normalizes a nil Loss to NoLoss, so that is what restore
	// must reinstate.
	if m := r.link.ConfigAB().Loss; m != (netsim.NoLoss{}) {
		t.Fatalf("loss model not restored to lossless: %#v", m)
	}
}

// TestChaosFilterModes pins the chaos filter's argument contract: err
// mode fails insertion, unknown modes and bad parameters are rejected.
func TestChaosFilterModes(t *testing.T) {
	cat := filter.NewCatalog()
	RegisterChaosFilter(cat)
	f, err := cat.Load("chaos")
	if err != nil {
		t.Fatal(err)
	}
	k := filter.Key{SrcIP: ip.MustParseAddr("10.0.0.1"), SrcPort: 1,
		DstIP: ip.MustParseAddr("10.0.0.2"), DstPort: 2}
	for _, args := range [][]string{
		{},
		{"err"},
		{"warp"},
		{"drop", "101"},
		{"drop", "NaN"},
		{"delay"},
		{"delay", "0"},
		{"delay", "10", "-1"},
	} {
		if err := f.New(nil, k, args); err == nil {
			t.Fatalf("chaos filter accepted args %v", args)
		}
	}
}

// TestChaosSeedsDiverge guards against the scenario accidentally
// ignoring its seed (a constant log would pass the determinism gate).
func TestChaosSeedsDiverge(t *testing.T) {
	var a, b bytes.Buffer
	if err := Chaos(11, &a); err != nil {
		t.Fatal(err)
	}
	if err := Chaos(12, &b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("different seeds produced identical chaos output")
	}
}
