package classifier

import (
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/ip"
)

// refMatch is the reference answer: a linear scan with
// filter.Key.Matches, the semantics the compiled program must
// reproduce exactly.
func refMatch(rules []filter.Key, k filter.Key) bool {
	for _, r := range rules {
		if r.Matches(k) {
			return true
		}
	}
	return false
}

func refIndices(rules []filter.Key, k filter.Key) []int32 {
	var out []int32
	for i, r := range rules {
		if r.Matches(k) {
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

// checkParity asserts Match and AppendMatches agree with the reference
// scan for key k.
func checkParity(t *testing.T, pr *Program, rules []filter.Key, k filter.Key) {
	t.Helper()
	want := refMatch(rules, k)
	if got := pr.Match(k); got != want {
		t.Fatalf("Match(%v) = %v, reference scan says %v (rules=%v)",
			k, got, want, rules)
	}
	wantIdx := refIndices(rules, k)
	gotIdx := pr.AppendMatches(nil, k)
	if !sameIndices(gotIdx, wantIdx) {
		t.Fatalf("AppendMatches(%v) = %v, reference scan says %v (rules=%v)",
			k, gotIdx, wantIdx, rules)
	}
}

// Small pools force value collisions so random rule sets exercise
// shared classes, not just distinct singletons.
var (
	testAddrs = []ip.Addr{
		0, // wild-card
		ip.MustParseAddr("10.0.0.1"),
		ip.MustParseAddr("10.0.0.2"),
		ip.MustParseAddr("11.11.10.10"),
		ip.MustParseAddr("11.11.10.99"),
	}
	testPorts = []uint16{0, 1, 7, 80, 1169, 8080}
)

func randKey(rng *rand.Rand) filter.Key {
	return filter.Key{
		SrcIP:   testAddrs[rng.Intn(len(testAddrs))],
		SrcPort: testPorts[rng.Intn(len(testPorts))],
		DstIP:   testAddrs[rng.Intn(len(testAddrs))],
		DstPort: testPorts[rng.Intn(len(testPorts))],
	}
}

func TestCompiledParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rules := make([]filter.Key, rng.Intn(12))
		for i := range rules {
			rules[i] = randKey(rng)
		}
		pr := Compile(rules)
		for probe := 0; probe < 64; probe++ {
			checkParity(t, pr, rules, randKey(rng))
		}
	}
}

func TestEmptyProgramMatchesNothing(t *testing.T) {
	for _, pr := range []*Program{Compile(nil), Compile([]filter.Key{}), new(Program)} {
		k := filter.Key{SrcIP: testAddrs[1], SrcPort: 7, DstIP: testAddrs[2], DstPort: 80}
		if pr.Match(k) {
			t.Fatal("empty program matched a key")
		}
		if got := pr.AppendMatches(nil, k); got != nil {
			t.Fatalf("empty program returned matches %v", got)
		}
		if pr.Len() != 0 {
			t.Fatalf("Len() = %d, want 0", pr.Len())
		}
	}
}

func TestAllWildRuleMatchesEverything(t *testing.T) {
	rules := []filter.Key{{}} // all fields wild
	pr := Compile(rules)
	probes := []filter.Key{
		{}, // all-zero lookup key
		{SrcIP: testAddrs[1]},
		{SrcPort: 9999},
		{SrcIP: testAddrs[3], SrcPort: 1169, DstIP: testAddrs[4], DstPort: 7},
	}
	for _, k := range probes {
		checkParity(t, pr, rules, k)
		if !pr.Match(k) {
			t.Fatalf("all-wild rule did not match %v", k)
		}
	}
}

// TestZeroFieldLookupKeys pins the port-0 / zero-address lookup edge:
// a zero field in the *lookup* key must behave exactly as the
// reference scan treats it (only rules wild-carding that field can
// match), even though zero normally marks wild-cards in rules.
func TestZeroFieldLookupKeys(t *testing.T) {
	rules := []filter.Key{
		{SrcIP: testAddrs[1], SrcPort: 7, DstIP: testAddrs[2], DstPort: 80},
		{SrcPort: 7},              // src port only
		{DstIP: testAddrs[2]},     // dst addr only
		{},                        // all wild
		{SrcIP: testAddrs[1]},     // src addr only
		{SrcPort: 7, DstPort: 80}, // both ports
		{SrcIP: 0, SrcPort: 0, DstIP: 0, DstPort: 443},
	}
	pr := Compile(rules)
	probes := []filter.Key{
		{},
		{SrcPort: 7},
		{SrcIP: testAddrs[1], SrcPort: 0, DstIP: 0, DstPort: 80},
		{SrcIP: testAddrs[1], SrcPort: 7, DstIP: testAddrs[2], DstPort: 80},
		{DstPort: 443},
		{SrcIP: testAddrs[4], DstPort: 443},
	}
	for _, k := range probes {
		checkParity(t, pr, rules, k)
	}
}

func TestDuplicateRules(t *testing.T) {
	r := filter.Key{SrcIP: testAddrs[1], SrcPort: 7}
	rules := []filter.Key{r, r, r}
	pr := Compile(rules)
	k := filter.Key{SrcIP: testAddrs[1], SrcPort: 7, DstIP: testAddrs[2], DstPort: 80}
	got := pr.AppendMatches(nil, k)
	if !sameIndices(got, []int32{0, 1, 2}) {
		t.Fatalf("duplicate rules: got indices %v, want [0 1 2]", got)
	}
}

// TestAppendMatchesReusesDst pins the zero-allocation contract: with a
// pre-grown dst, AppendMatches must not allocate.
func TestAppendMatchesReusesDst(t *testing.T) {
	rules := []filter.Key{{SrcPort: 7}, {SrcPort: 7, DstPort: 80}, {}}
	pr := Compile(rules)
	k := filter.Key{SrcIP: testAddrs[1], SrcPort: 7, DstIP: testAddrs[2], DstPort: 80}
	dst := make([]int32, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		dst = pr.AppendMatches(dst[:0], k)
	})
	if allocs != 0 {
		t.Fatalf("AppendMatches into pre-grown dst allocated %.1f/op", allocs)
	}
	if !sameIndices(dst, []int32{0, 1, 2}) {
		t.Fatalf("got %v, want [0 1 2]", dst)
	}
}

// TestLargeRegistryShape checks parity on a perf-bench-shaped registry:
// many rules differing in one field.
func TestLargeRegistryShape(t *testing.T) {
	const n = 8000
	rules := make([]filter.Key, n)
	for i := range rules {
		rules[i] = filter.Key{SrcPort: uint16(10000 + i%50000), DstIP: testAddrs[3]}
	}
	pr := Compile(rules)
	rng := rand.New(rand.NewSource(3))
	for probe := 0; probe < 100; probe++ {
		k := filter.Key{
			SrcIP:   testAddrs[4],
			SrcPort: uint16(rng.Intn(65536)),
			DstIP:   testAddrs[rng.Intn(len(testAddrs))],
			DstPort: uint16(rng.Intn(3)),
		}
		checkParity(t, pr, rules, k)
	}
}

// TestPatternCount pins the lookup's cost model without a clock: a
// lookup probes the table once per pattern present, so the pattern
// count, not the rule count, is what a registry's shape costs. One rule
// and 8000 of the proxy's common shape (concrete endpoints, wild
// destination port) are one pattern; the benchmark's fwd-small registry
// (5 destination-only rules, 500 naming the source endpoint and the
// destination address, 500 exact) is three; and a registry using every
// pattern, many times over, is 16.
func TestPatternCount(t *testing.T) {
	common := func(n int) []filter.Key {
		rules := make([]filter.Key, n)
		for i := range rules {
			rules[i] = filter.Key{SrcIP: testAddrs[4], SrcPort: uint16(10000 + i%50000), DstIP: testAddrs[3]}
		}
		return rules
	}
	var fwdSmall []filter.Key
	for i := 0; i < 5; i++ {
		fwdSmall = append(fwdSmall, filter.Key{DstIP: testAddrs[3]})
	}
	for i := 0; i < 500; i++ {
		fwdSmall = append(fwdSmall,
			filter.Key{SrcIP: testAddrs[4], SrcPort: uint16(20000 + i), DstIP: testAddrs[3]},
			filter.Key{SrcIP: ip.AddrFrom4(10, 1, 0, byte(1+i%20)), SrcPort: uint16(7000 + i/20),
				DstIP: testAddrs[3], DstPort: 5001})
	}
	var every []filter.Key
	for i := 0; i < 64; i++ {
		every = append(every, mask(filter.Key{SrcIP: testAddrs[1+i%4], SrcPort: uint16(1 + i),
			DstIP: testAddrs[1+i/4%4], DstPort: 80}, uint8(i%16)))
	}
	for _, c := range []struct {
		name     string
		rules    []filter.Key
		patterns int
	}{{"1 rule", common(1), 1}, {"8000 rules", common(8000), 1}, {"fwd-small", fwdSmall, 3}, {"every pattern", every, 16}} {
		if got := len(Compile(c.rules).patterns); got != c.patterns {
			t.Errorf("%s: %d patterns, want %d", c.name, got, c.patterns)
		}
	}
}
