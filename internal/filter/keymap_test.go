package filter

import (
	"math/rand"
	"testing"

	"repro/internal/ip"
)

// checkKeyMap holds m to the reference map: the same length, the same
// value under every reference key, nothing under the other keys of the
// pool, and a walk that visits exactly the reference's pairs, each
// once.
func checkKeyMap(t *testing.T, m *KeyMap[int], ref map[Key]int, pool []Key) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len() = %d, the map holds %d", m.Len(), len(ref))
	}
	for _, k := range pool {
		v, ok := m.Get(k)
		if want, in := ref[k]; ok != in || v != want {
			t.Fatalf("Get(%v) = %d, %v; the map holds %d, %v", k, v, ok, want, in)
		}
	}
	seen := make(map[Key]bool, len(ref))
	m.All(func(k Key, v int) bool {
		if want, in := ref[k]; !in || v != want || seen[k] {
			t.Fatalf("walk visits %v = %d (seen before: %v); the map holds %d, %v", k, v, seen[k], want, in)
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("walk visits %d keys, the map holds %d", len(seen), len(ref))
	}
	for i, s := range m.slots {
		if s.used {
			continue
		}
		if s != (keySlot[int]{}) {
			t.Fatalf("empty slot %d holds %+v", i, s)
		}
	}
}

// keyMapSeed fixes the hash of the tables the differential check
// builds, so that the pool's colliding keys collide.
const keyMapSeed = 0x5eed_0f_c0a1_1de5

// keyMapPool is the key space of the differential check, chosen for
// the hard cases of linear probing under keyMapSeed:
//   - 16 keys whose home is the last slot of every table up to 1024
//     slots, so their cluster wraps past the end and a delete shifts
//     entries back across it;
//   - 16 keys that all share one home slot in the middle;
//   - the churn shape, one address pair with sequential client ports,
//     in both directions;
//   - the zero key, which an empty slot also holds.
func keyMapPool() []Key {
	probe := KeyMap[int]{seed: keyMapSeed, shift: 64 - 10}
	var wrap, mid []Key
	for i := 0; len(wrap) < 16 || len(mid) < 16; i++ {
		k := Key{SrcIP: ip.AddrFrom4(10, 0, 0, 0) + ip.Addr(i/1000), SrcPort: uint16(2000 + i%1000),
			DstIP: ip.AddrFrom4(10, 1, 0, 1), DstPort: 80}
		switch probe.home(k) {
		case 1023:
			if len(wrap) < 16 {
				wrap = append(wrap, k)
			}
		case 512:
			if len(mid) < 16 {
				mid = append(mid, k)
			}
		}
	}
	pool := append(wrap, mid...)
	for p := uint16(0); p < 15; p++ {
		k := Key{SrcIP: ip.AddrFrom4(12, 0, 0, 1), SrcPort: 1024 + p, DstIP: ip.AddrFrom4(11, 11, 10, 10), DstPort: 5001}
		pool = append(pool, k, k.Reverse())
	}
	return append(pool, Key{})
}

// checkKeyMapScript decodes script into operations on a KeyMap and on
// a map[Key]int side by side, and compares the two after each one.
// Every operation is one byte: its low two bits pick get, insert,
// delete or a walk, the rest a key of the pool.
func checkKeyMapScript(t *testing.T, pool []Key, script []byte) {
	t.Helper()
	m := KeyMap[int]{seed: keyMapSeed}
	ref := make(map[Key]int)
	for step, op := range script {
		k := pool[int(op>>2)%len(pool)]
		switch op % 4 {
		case 0:
			v, ok := m.Get(k)
			if want, in := ref[k]; ok != in || v != want {
				t.Fatalf("step %d: Get(%v) = %d, %v; the map holds %d, %v", step, k, v, ok, want, in)
			}
		case 1:
			p, found := m.Insert(k)
			want, in := ref[k]
			if found != in || *p != want {
				t.Fatalf("step %d: Insert(%v) found %v holding %d; the map holds %d, %v", step, k, found, *p, want, in)
			}
			*p = step + 1
			ref[k] = step + 1
		case 2:
			v, ok := m.Delete(k)
			if want, in := ref[k]; ok != in || v != want {
				t.Fatalf("step %d: Delete(%v) = %d, %v; the map holds %d, %v", step, k, v, ok, want, in)
			}
			delete(ref, k)
		case 3:
			stop, n := int(op>>2)%(len(ref)+1), 0
			m.All(func(Key, int) bool { n++; return n < stop })
			if want := min(max(stop, 1), len(ref)); n != want {
				t.Fatalf("step %d: a walk told to stop after %d of %d keys visited %d", step, stop, len(ref), n)
			}
		}
		checkKeyMap(t, &m, ref, pool)
	}
}

// FuzzKeyMap is the differential check of KeyMap against Go's map over
// a pool of colliding, wrapping and sequential keys, with growth from 8
// to 128 slots and back-shifting deletes.
func FuzzKeyMap(f *testing.F) {
	pool := keyMapPool()
	f.Add([]byte{1, 5, 9, 13, 17, 21, 25, 29, 2, 6, 10, 3})           // the wrapping cluster: fill, delete from its head, walk
	f.Add([]byte{65, 69, 73, 77, 81, 85, 89, 66, 74, 78, 64, 68, 67}) // one shared home
	all := make([]byte, 0, 3*len(pool))
	for i := range pool {
		all = append(all, byte(i<<2|1)) // every key: growth to 128 slots
	}
	for i := range pool {
		all = append(all, byte(i<<2|2), byte(i<<2)) // then every delete, with a get after each
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, script []byte) {
		checkKeyMapScript(t, pool, script)
	})
}

// TestKeyMapMatchesMap runs random scripts through checkKeyMapScript.
func TestKeyMapMatchesMap(t *testing.T) {
	pool := keyMapPool()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		script := make([]byte, rng.Intn(400))
		rng.Read(script)
		checkKeyMapScript(t, pool, script)
	}
}

// maxProbe is the longest probe of any key in m: the slots a lookup of
// it reads.
func maxProbe[V any](m *KeyMap[V]) int {
	mask, longest := len(m.slots)-1, 0
	for i, s := range m.slots {
		if s.used {
			longest = max(longest, (i-m.home(s.key))&mask+1)
		}
	}
	return longest
}

// TestKeyMapProbeBound fills tables to their maximum load (half of
// 4096 and of 8192 slots) with the structured key sets a proxy sees,
// at four fixed seeds each, and holds the longest probe under a bound.
// Over 1000 random seeds, 4096 random keys in 8192 slots had a longest
// probe of 10 to 41 slots; a hash that kept the keys' structure would
// give thousands.
func TestKeyMapProbeBound(t *testing.T) {
	const bound = 40
	cli, srv := ip.AddrFrom4(12, 0, 0, 1), ip.AddrFrom4(11, 11, 10, 10)
	rng := rand.New(rand.NewSource(3))
	shapes := []struct {
		name string
		key  func(i int) Key
	}{
		// both directions of flows from one client address, its ports in sequence
		{"churn", func(i int) Key {
			k := Key{SrcIP: cli, SrcPort: uint16(1024 + i/2), DstIP: srv, DstPort: 5001}
			if i%2 == 1 {
				return k.Reverse()
			}
			return k
		}},
		// one flow each from consecutive addresses, fixed ports
		{"addresses", func(i int) Key {
			return Key{SrcIP: cli + ip.Addr(i), SrcPort: 40000, DstIP: srv, DstPort: 80}
		}},
		// spoofed SYNs to one server port
		{"synstorm", func(i int) Key {
			if i == 0 {
				rng.Seed(3)
			}
			return Key{SrcIP: ip.Addr(rng.Uint32()), SrcPort: uint16(rng.Uint32()), DstIP: srv, DstPort: 80}
		}},
	}
	for _, shape := range shapes {
		name, key := shape.name, shape.key
		for _, slots := range []int{4096, 8192} {
			for trial := uint64(1); trial <= 4; trial++ {
				m := KeyMap[struct{}]{seed: trial * 0x9e3779b97f4a7c15}
				for i := 0; i < slots/2; i++ {
					m.Insert(key(i))
				}
				if len(m.slots) != slots {
					t.Fatalf("%s: %d keys fill %d slots, want %d", name, m.Len(), len(m.slots), slots)
				}
				if p := maxProbe(&m); p > bound {
					t.Errorf("%s, %d keys in %d slots: longest probe %d slots, bound %d", name, m.Len(), slots, p, bound)
				} else {
					t.Logf("%s, %d keys in %d slots: longest probe %d", name, m.Len(), slots, p)
				}
			}
		}
	}
}

// TestKeyMapSeeds: every table draws its own seed.
func TestKeyMapSeeds(t *testing.T) {
	var a, b KeyMap[int]
	k := Key{SrcIP: 1, SrcPort: 2, DstIP: 3, DstPort: 4}
	a.Insert(k)
	b.Insert(k)
	if a.seed == 0 || a.seed == b.seed {
		t.Fatalf("seeds %#x and %#x: want two different non-zero seeds", a.seed, b.seed)
	}
}

// TestKeyMapSteadyChurn turns a live set of fixed size over many times,
// oldest key out and a fresh one in, as streams come and go: the slot
// array stays the size the live set first needed, and no turnover
// allocates.
func TestKeyMapSteadyChurn(t *testing.T) {
	for _, live := range []int{6, 64, 1000, 4096} {
		var m KeyMap[int]
		key := func(i int) Key {
			return Key{SrcIP: ip.AddrFrom4(12, 0, 0, 1) + ip.Addr(i>>16), SrcPort: uint16(i), DstIP: 7, DstPort: 5001}
		}
		for i := 0; i < live; i++ {
			*must(m.Insert(key(i))) = i
		}
		want := minSlots
		for want < 2*live {
			want *= 2
		}
		if len(m.slots) != want {
			t.Fatalf("%d live keys take %d slots, want %d", live, len(m.slots), want)
		}
		next := live
		allocs := testing.AllocsPerRun(20*live, func() {
			if v, ok := m.Delete(key(next - live)); !ok || v != next-live {
				t.Fatalf("Delete(%v) = %d, %v", key(next-live), v, ok)
			}
			*must(m.Insert(key(next))) = next
			next++
		})
		if allocs != 0 || len(m.slots) != want || m.Len() != live {
			t.Fatalf("live set %d after %d turnovers: %.1f allocations each, %d slots for %d keys; want 0, %d slots and %d keys",
				live, next-live, allocs, len(m.slots), m.Len(), want, live)
		}
	}
}

// must is Insert for a key known to be absent.
func must(p *int, found bool) *int {
	if found {
		panic("key inserted twice")
	}
	return p
}
