// Package bitset implements a compact fixed-capacity bit set used by the
// exact dominating-set solver and the combinatorial baselines, where
// closed-neighborhood masks and coverage states are manipulated millions of
// times inside branch-and-bound search.
package bitset

import (
	"math/bits"
	"strings"
)

// Set is a fixed-capacity bit set. The zero value is unusable; create sets
// with New. Operations that combine two sets require equal capacity.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns a set with capacity n bits, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Words exposes the backing word array: bit i lives at words[i>>6] bit
// (i & 63). The fastpath solver iterates and combines word ranges directly
// (including with atomic ORs for commutative marking); everyone else should
// stick to the bit-level API. Bits at positions ≥ Len() in the last word are
// kept clear by the mutating methods of this package, and callers writing
// words directly must preserve that invariant.
func (s *Set) Words() []uint64 { return s.words }

// Reset reuses the set's storage for capacity n bits, all clear. It
// allocates only when the existing backing array is too small, which lets
// pooled solvers re-target sets across graphs without steady-state garbage.
func (s *Set) Reset(n int) {
	w := (n + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// SetAll sets every bit in [0, Len()).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(s.n) & 63; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << tail) - 1
	}
}

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// All reports whether every bit in [0, Len()) is set. The scan exits at the
// first non-full word instead of popcounting the whole array.
func (s *Set) All() bool {
	if s.n == 0 {
		return true
	}
	last := len(s.words) - 1
	for _, w := range s.words[:last] {
		if w != ^uint64(0) {
			return false
		}
	}
	full := ^uint64(0)
	if tail := uint(s.n) & 63; tail != 0 {
		full = (1 << tail) - 1
	}
	return s.words[last] == full
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of other (equal capacity assumed).
func (s *Set) CopyFrom(other *Set) { copy(s.words, other.words) }

// Or sets s = s | other.
func (s *Set) Or(other *Set) {
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// Equal reports whether s and other contain the same bits.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range s.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// AndNotCount returns |s \ other| without allocating.
func (s *Set) AndNotCount(other *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w &^ other.words[i])
	}
	return c
}

// NextClear returns the index of the first clear bit at or after from, or -1
// if every bit in [from, Len()) is set.
func (s *Set) NextClear(from int) int {
	if from >= s.n {
		return -1
	}
	wi := from >> 6
	w := ^s.words[wi] >> (uint(from) & 63)
	if w != 0 {
		i := from + bits.TrailingZeros64(w)
		if i < s.n {
			return i
		}
		return -1
	}
	for wi++; wi < len(s.words); wi++ {
		if w := ^s.words[wi]; w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if i < s.n {
				return i
			}
			return -1
		}
	}
	return -1
}

// ClearWords zeroes the word range [w0, w1) of the backing array — the
// chunk-owned bulk reset the fastpath phases use, where each worker owns a
// disjoint word range outright.
func (s *Set) ClearWords(w0, w1 int) {
	ws := s.words[w0:w1]
	for i := range ws {
		ws[i] = 0
	}
}

// String renders the set as a bit string, lowest index first (for tests).
func (s *Set) String() string {
	var b strings.Builder
	for i := 0; i < s.n; i++ {
		if s.Test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
