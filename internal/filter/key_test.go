package filter

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ip"
)

// sprintfKey is how Key.String and ip.Addr.String rendered before they
// left fmt: the reference the strconv renderers must equal byte for
// byte, because the text is in reports, event logs and their digests.
func sprintfKey(k Key) string {
	return fmt.Sprintf("%s %d -> %s %d", sprintfAddr(k.SrcIP), k.SrcPort, sprintfAddr(k.DstIP), k.DstPort)
}

func sprintfAddr(a ip.Addr) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

func checkKeyString(t *testing.T, k Key) {
	t.Helper()
	want := sprintfKey(k)
	if got := k.String(); got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
	if got := string(k.AppendTo([]byte("x"))); got != "x"+want {
		t.Fatalf("Key.AppendTo = %q, want %q", got, "x"+want)
	}
	for _, a := range []ip.Addr{k.SrcIP, k.DstIP} {
		if got, want := a.String(), sprintfAddr(a); got != want {
			t.Fatalf("Addr.String() = %q, want %q", got, want)
		}
	}
}

// TestKeyStringMatchesSprintf holds the renderers to the reference at
// the edges of every field: all-zero and all-ones addresses, octets and
// ports on both sides of each digit-count boundary.
func TestKeyStringMatchesSprintf(t *testing.T) {
	addrs := []ip.Addr{0, 0xffffffff, ip.AddrFrom4(11, 11, 10, 99), ip.AddrFrom4(9, 10, 99, 100),
		ip.AddrFrom4(0, 0, 0, 1), ip.AddrFrom4(1, 0, 0, 0), ip.AddrFrom4(200, 199, 0, 255)}
	ports := []uint16{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535}
	for _, src := range addrs {
		for _, dst := range addrs {
			for _, sp := range ports {
				for _, dp := range ports {
					checkKeyString(t, Key{SrcIP: src, SrcPort: sp, DstIP: dst, DstPort: dp})
				}
			}
		}
	}
	if got := (Key{SrcIP: 0xffffffff, SrcPort: 65535, DstIP: 0xffffffff, DstPort: 65535}).String(); len(got) != len("255.255.255.255 65535 -> 255.255.255.255 65535") {
		t.Fatalf("longest key renders as %q", got)
	}
}

func FuzzKeyString(f *testing.F) {
	f.Add(uint32(0), uint16(0), uint32(0), uint16(0))
	f.Add(uint32(0xffffffff), uint16(65535), uint32(0xffffffff), uint16(65535))
	f.Add(uint32(ip.AddrFrom4(11, 11, 10, 99)), uint16(7), uint32(ip.AddrFrom4(11, 11, 10, 10)), uint16(1169))
	f.Fuzz(func(t *testing.T, src uint32, sp uint16, dst uint32, dp uint16) {
		checkKeyString(t, Key{SrcIP: ip.Addr(src), SrcPort: sp, DstIP: ip.Addr(dst), DstPort: dp})
	})
}

// TestSortByKeyIsRenderedTextOrder: the helper's order is the order of
// the rendered text ("10" before "9"), which is what a comparator
// calling String on both sides produced and what the digests hold.
func TestSortByKeyIsRenderedTextOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]Key, 500)
	for i := range keys {
		keys[i] = Key{SrcIP: ip.Addr(rng.Uint32()), SrcPort: uint16(rng.Intn(1200)),
			DstIP: ip.AddrFrom4(11, 11, 10, byte(rng.Intn(12))), DstPort: uint16(rng.Intn(12))}
	}
	want := append([]Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i].String() < want[j].String() })
	SortKeys(keys)
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("position %d: %v, want %v", i, keys[i], want[i])
		}
	}
	type row struct {
		k Key
		n int
	}
	rows := []row{{want[2], 2}, {want[0], 0}, {want[1], 1}}
	SortByKey(rows, func(r row) Key { return r.k })
	for i, r := range rows {
		if r.n != i {
			t.Fatalf("rows sorted as %v", rows)
		}
	}
}

func TestParseSpec(t *testing.T) {
	if s := ParseSpec("tcp"); s.Name != "tcp" || len(s.Args) != 0 {
		t.Fatalf("ParseSpec(tcp) = %+v", s)
	}
	if s := ParseSpec("wsize:cap:4096"); s.Name != "wsize" || len(s.Args) != 2 || s.Args[0] != "cap" || s.Args[1] != "4096" {
		t.Fatalf("ParseSpec(wsize:cap:4096) = %+v", s)
	}
}

// TestFreeListShedsABurst: the list hands back the most recent entry,
// keeps the working set a steady load cycles through, and lets go of
// what a one-off burst left behind once the list has turned over
// without anybody needing it.
func TestFreeListShedsABurst(t *testing.T) {
	var f FreeList[int]
	if f.Get() != nil {
		t.Fatal("Get on an empty list")
	}
	a, b := new(int), new(int)
	f.Put(a)
	f.Put(b)
	if f.Get() != b || f.Get() != a || f.Get() != nil {
		t.Fatal("Get is not last in, first out")
	}
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			if f.Get() == nil {
				t.Fatalf("working set of %d not kept: list ran dry at %d", n, i)
			}
		}
		for i := 0; i < n; i++ {
			f.Put(new(int))
		}
	}
	for i := 0; i < 1000; i++ { // the burst
		f.Put(new(int))
	}
	for round := 0; round < 40; round++ {
		cycle(50)
		if f.Len() > 1000 {
			t.Fatalf("list grew to %d", f.Len())
		}
	}
	if f.Len() != 50 {
		t.Fatalf("list holds %d entries after 40 rounds of a 50-entry load, want 50", f.Len())
	}
}
