// Package classifier compiles the stream registry's wild-card key set
// into an immutable match program: a tuple space (Srinivasan, Suri and
// Varghese, SIGCOMM '99). Each field of a rule key is either named or
// wild (zero), so a rule's pattern — the set of fields it names — is
// one of 16. Compile puts every rule key in one stream table
// (filter.KeyMap) and records the patterns present; a lookup masks the
// exact key with each pattern and probes the table once per pattern.
// Its cost is bounded by the pattern count, at most 16, whatever the
// rule count, and it allocates nothing.
//
// The reference semantics are filter.Key.Matches: a compiled program
// must answer every lookup exactly as a linear scan of the rules would
// (pinned by the parity property and fuzz tests).
package classifier

import (
	"slices"

	"repro/internal/filter"
)

// The bits of a pattern: which fields a key names.
const (
	srcIP uint8 = 1 << iota
	srcPort
	dstIP
	dstPort
)

// Program is an immutable compiled match program. The zero value (and
// a program compiled from an empty rule set) matches nothing. Lookups
// only read it, so they are safe from any number of goroutines;
// mutation is by recompiling and swapping the pointer.
type Program struct {
	n        int                  // rule count
	table    filter.KeyMap[int32] // rule key -> its entry in matches
	matches  [][]int32            // ascending indices of the rules with one key
	patterns []uint8              // the patterns present, in first-use order
}

// Compile builds the match program for rules. The slice is not retained.
func Compile(rules []filter.Key) *Program {
	pr := &Program{n: len(rules)}
	for i, r := range rules {
		m, found := pr.table.Insert(r)
		if !found {
			*m = int32(len(pr.matches))
			pr.matches = append(pr.matches, nil)
			if p := pattern(r); !slices.Contains(pr.patterns, p) {
				pr.patterns = append(pr.patterns, p)
			}
		}
		pr.matches[*m] = append(pr.matches[*m], int32(i))
	}
	return pr
}

// pattern returns the fields k names.
func pattern(k filter.Key) uint8 {
	var p uint8
	if !k.SrcIP.IsZero() {
		p |= srcIP
	}
	if k.SrcPort != 0 {
		p |= srcPort
	}
	if !k.DstIP.IsZero() {
		p |= dstIP
	}
	if k.DstPort != 0 {
		p |= dstPort
	}
	return p
}

// mask returns k with every field outside pattern p made wild: the key
// a rule of pattern p must have to match k.
func mask(k filter.Key, p uint8) filter.Key {
	if p&srcIP == 0 {
		k.SrcIP = 0
	}
	if p&srcPort == 0 {
		k.SrcPort = 0
	}
	if p&dstIP == 0 {
		k.DstIP = 0
	}
	if p&dstPort == 0 {
		k.DstPort = 0
	}
	return k
}

// Match reports whether any rule matches k. A rule names a field only
// with a non-zero value, so a pattern naming a field k has zero can
// match nothing and is not probed. Allocation-free.
func (pr *Program) Match(k filter.Key) bool {
	named := pattern(k)
	for _, p := range pr.patterns {
		if p&^named == 0 {
			if _, ok := pr.table.Get(mask(k, p)); ok {
				return true
			}
		}
	}
	return false
}

// AppendMatches appends the indices (ascending, in compile order) of
// every rule matching k to dst and returns the extended slice. It
// allocates only if dst needs growing.
func (pr *Program) AppendMatches(dst []int32, k filter.Key) []int32 {
	named, start, hits := pattern(k), len(dst), 0
	for _, p := range pr.patterns {
		if p&^named == 0 {
			if m, ok := pr.table.Get(mask(k, p)); ok {
				dst = append(dst, pr.matches[m]...)
				hits++
			}
		}
	}
	if hits > 1 {
		slices.Sort(dst[start:])
	}
	return dst
}

// Len returns the number of rules the program was compiled from.
func (pr *Program) Len() int { return pr.n }
