package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetClearTest(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 63, 64, 65, 129} {
		if s.Test(i) {
			t.Errorf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d, want 5", s.Count())
	}
	s.Clear(64)
	if s.Test(64) || s.Count() != 4 {
		t.Errorf("Clear(64) failed: count=%d", s.Count())
	}
}

func TestAllNone(t *testing.T) {
	s := New(70)
	if s.Count() != 0 || s.All() {
		t.Error("fresh set should be empty and not All")
	}
	for i := 0; i < 70; i++ {
		s.Set(i)
	}
	if !s.All() || s.Count() != 70 {
		t.Error("full set should be All with every bit counted")
	}
	if s.Len() != 70 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i) // evens
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i) // multiples of 3
	}

	or := a.Clone()
	or.Or(b)

	diff := 0
	for i := 0; i < 100; i++ {
		even, mul3 := i%2 == 0, i%3 == 0
		if or.Test(i) != (even || mul3) {
			t.Fatalf("Or wrong at %d", i)
		}
		if even && !mul3 {
			diff++
		}
	}
	if got := a.AndNotCount(b); got != diff {
		t.Errorf("AndNotCount = %d, want %d", got, diff)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(10)
	a.Set(3)
	b := a.Clone()
	b.Set(5)
	if a.Test(5) {
		t.Error("Clone shares storage with original")
	}
	if !b.Test(3) {
		t.Error("Clone lost bits")
	}
	c := New(10)
	c.CopyFrom(a)
	if !c.Test(3) || c.Count() != 1 {
		t.Error("CopyFrom failed")
	}
}

func TestEqualSubset(t *testing.T) {
	a, b := New(66), New(66)
	a.Set(1)
	a.Set(65)
	b.Set(1)
	if a.Equal(b) {
		t.Error("unequal sets reported Equal")
	}
	b.Set(65)
	if !a.Equal(b) {
		t.Error("equal sets reported unequal")
	}
	if a.Equal(New(64)) {
		t.Error("different capacities should not be Equal")
	}
	// A subset leaves nothing outside its superset.
	sub := New(66)
	sub.Set(1)
	if sub.AndNotCount(a) != 0 {
		t.Error("subset reported bits outside its superset")
	}
	sub.Set(2)
	if sub.AndNotCount(a) != 1 {
		t.Error("non-subset's extra bit not counted")
	}
}

func TestNextClear(t *testing.T) {
	s := New(130)
	for i := 0; i < 130; i++ {
		s.Set(i)
	}
	if got := s.NextClear(0); got != -1 {
		t.Errorf("NextClear of full set = %d, want -1", got)
	}
	s.Clear(64)
	s.Clear(129)
	if got := s.NextClear(0); got != 64 {
		t.Errorf("NextClear(0) = %d, want 64", got)
	}
	if got := s.NextClear(65); got != 129 {
		t.Errorf("NextClear(65) = %d, want 129", got)
	}
	if got := s.NextClear(130); got != -1 {
		t.Errorf("NextClear past end = %d, want -1", got)
	}
	// Clear bit beyond capacity must not be reported.
	s2 := New(62)
	for i := 0; i < 62; i++ {
		s2.Set(i)
	}
	if got := s2.NextClear(0); got != -1 {
		t.Errorf("NextClear must ignore padding bits, got %d", got)
	}
}

func TestAllEarlyExit(t *testing.T) {
	// All must handle tail words (capacity not a multiple of 64), empty
	// sets, and must not be fooled by padding bits in the last word.
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		s := New(n)
		if n > 0 && s.All() {
			t.Errorf("n=%d: empty set reported All", n)
		}
		for i := 0; i < n; i++ {
			s.Set(i)
		}
		if !s.All() {
			t.Errorf("n=%d: full set not All", n)
		}
		if n > 0 {
			s.Clear(n / 2)
			if s.All() {
				t.Errorf("n=%d: set with bit %d clear reported All", n, n/2)
			}
		}
	}
}

func TestClearWords(t *testing.T) {
	s := New(200) // 4 words
	s.SetAll()
	s.ClearWords(1, 3)
	for i := 0; i < 200; i++ {
		wantSet := i < 64 || i >= 192
		if s.Test(i) != wantSet {
			t.Fatalf("ClearWords(1,3): bit %d = %v, want %v", i, s.Test(i), wantSet)
		}
	}
	s.ClearWords(2, 2) // empty range is a no-op
	if got := s.Count(); got != 64+8 {
		t.Errorf("Count after ClearWords = %d, want 72", got)
	}
}

func TestString(t *testing.T) {
	s := New(4)
	s.Set(1)
	s.Set(3)
	if s.String() != "0101" {
		t.Errorf("String = %q, want 0101", s.String())
	}
}

// Property: Or then AndNotCount counts the original disjoint part.
func TestPropertyOrAndNot(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(1<<16), New(1<<16)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		u := a.Clone()
		u.Or(b)
		return u.AndNotCount(b) == a.AndNotCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
