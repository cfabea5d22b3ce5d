// Package bitset is a dense set of small non-negative integers, one bit
// per member in 64-bit words. The interprocedural summaries use it for
// sets over formal positions and global numbers (sem.GlobalVar.Num),
// which are dense by construction, so membership and union are word
// operations instead of map probes.
package bitset

// Set holds member i in bit i%64 of word i/64. A nil or short Set reads
// as empty beyond its last word.
type Set []uint64

// Words returns the word count a Set over [0, n) needs.
func Words(n int) int { return (n + 63) >> 6 }

// Has reports whether i is a member; negative i never is.
func (s Set) Has(i int) bool {
	w := i >> 6
	return i >= 0 && w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Add inserts i, which must lie within the words s was sized for, and
// reports whether it was new.
func (s Set) Add(i int) bool {
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	if s[w]&bit != 0 {
		return false
	}
	s[w] |= bit
	return true
}

// Or adds every member of t, which must be no wider than s, and
// reports whether s grew.
func (s Set) Or(t Set) bool {
	var grew uint64
	for w, x := range t {
		grew |= x &^ s[w]
		s[w] |= x
	}
	return grew != 0
}

// Empty reports whether s has no member.
func (s Set) Empty() bool {
	for _, x := range s {
		if x != 0 {
			return false
		}
	}
	return true
}
