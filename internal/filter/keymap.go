package filter

import (
	"math/bits"
	"math/rand/v2"
)

// KeyMap is a hash table of exact stream keys, for the lookups the
// proxy makes on every packet: the filter queue and the flow-log record
// of a 4-tuple. A Go map keyed by the 12-byte Key hashes and compares
// it through the runtime's generic variable-length paths; KeyMap mixes
// the key's two words with two multiplications and compares it inline.
//
// It is open-addressed with linear probing over a power-of-two slot
// array kept at most half full. Delete shifts the rest of the cluster
// back instead of leaving a tombstone, so a steady insert/delete churn
// at a fixed live-set size neither grows the array nor lengthens its
// probes. The hash is salted with a seed drawn once
// per table, as Go seeds each map, so a remote sender cannot
// precompute 4-tuples that collide.
//
// The zero value is an empty table. A KeyMap belongs to one goroutine.
type KeyMap[V any] struct {
	slots []keySlot[V] // nil until the first Insert
	shift uint         // 64 - log2(len(slots)): a hash's top bits index it
	n     int
	seed  uint64 // drawn at the first Insert unless already set
}

type keySlot[V any] struct {
	key  Key
	used bool
	val  V
}

// minSlots is the size of the first slot array.
const minSlots = 8

// home is k's preferred slot: the top bits of a multiply-xorshift mix
// of the addresses, salted by the seed, and then the ports.
func (m *KeyMap[V]) home(k Key) int {
	h := (uint64(k.SrcIP)<<32 | uint64(k.DstIP)) ^ m.seed
	h *= 0x9e3779b97f4a7c15
	h ^= h>>32 ^ (uint64(k.SrcPort)<<16 | uint64(k.DstPort))
	h *= 0xbf58476d1ce4e5b9
	return int(h >> m.shift)
}

// Len is the number of keys held.
func (m *KeyMap[V]) Len() int { return m.n }

// Get returns k's value and whether k is present.
func (m *KeyMap[V]) Get(k Key) (v V, ok bool) {
	if m.n == 0 {
		return v, false
	}
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.used {
			return v, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// Insert returns a pointer to k's value, adding k with the zero value
// when it is absent; found reports whether k was there already. The
// pointer is valid until the next Insert or Delete.
func (m *KeyMap[V]) Insert(k Key) (v *V, found bool) {
	if m.slots != nil {
		mask := len(m.slots) - 1
		for i := m.home(k); ; i = (i + 1) & mask {
			s := &m.slots[i]
			if s.used {
				if s.key == k {
					return &s.val, true
				}
				continue
			}
			if 2*(m.n+1) > len(m.slots) {
				// Past half full linear probing's probes lengthen
				// fast: grow, then place k.
				break
			}
			s.key, s.used = k, true
			m.n++
			return &s.val, false
		}
	}
	m.grow()
	s := &m.slots[m.free(k)]
	s.key, s.used = k, true
	m.n++
	return &s.val, false
}

// Delete removes k and returns its value; ok is false, and the table
// unchanged, when k is absent.
func (m *KeyMap[V]) Delete(k Key) (v V, ok bool) {
	if m.n == 0 {
		return v, false
	}
	mask := len(m.slots) - 1
	i := m.home(k)
	for ; m.slots[i].key != k; i = (i + 1) & mask {
		if !m.slots[i].used {
			return v, false
		}
	}
	if !m.slots[i].used {
		return v, false // k is the zero Key, which every empty slot holds
	}
	v = m.slots[i].val
	m.n--
	// Backward shift: walk the rest of the cluster and move into the
	// hole at i each entry whose probe path passes through it, that is,
	// whose home is not cyclically within (i, j].
	for j := (i + 1) & mask; m.slots[j].used; j = (j + 1) & mask {
		if h := m.home(m.slots[j].key); (j-h)&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = keySlot[V]{}
	return v, true
}

// All calls fn for every key and its value, in slot order, until fn
// returns false. fn must not Insert into or Delete from the table.
func (m *KeyMap[V]) All(fn func(Key, V) bool) {
	for i := range m.slots {
		if s := &m.slots[i]; s.used && !fn(s.key, s.val) {
			return
		}
	}
}

// grow doubles the slot array (or makes the first one) and re-places
// every key.
func (m *KeyMap[V]) grow() {
	if m.seed == 0 {
		m.seed = rand.Uint64() | 1
	}
	old := m.slots
	m.slots = make([]keySlot[V], max(minSlots, 2*len(old)))
	m.shift = uint(64 - bits.TrailingZeros(uint(len(m.slots))))
	for i := range old {
		if old[i].used {
			m.slots[m.free(old[i].key)] = old[i]
		}
	}
}

// free returns the first empty slot on k's probe path.
func (m *KeyMap[V]) free(k Key) int {
	mask := len(m.slots) - 1
	i := m.home(k)
	for m.slots[i].used {
		i = (i + 1) & mask
	}
	return i
}
