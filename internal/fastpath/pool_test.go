package fastpath

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// TestPoolLIFO pins the free list's order and bound: Acquire hands back the
// most recently released solver of the class, and a class keeps at most
// GOMAXPROCS idle solvers, dropping the least recently released one.
func TestPoolLIFO(t *testing.T) {
	g, err := gen.Path(6) // capacity class 3, which no other test pools into
	if err != nil {
		t.Fatal(err)
	}
	c := capClass(g.N())
	for pools[c].pop() != nil || pools[c+1].pop() != nil {
	}
	released := make([]*Solver, runtime.GOMAXPROCS(0)+1)
	for i := range released {
		released[i] = New()
		if _, err := released[i].Solve(g, Options{K: 2}); err != nil {
			t.Fatal(err)
		}
		Release(released[i])
	}
	for i := len(released) - 1; i >= 1; i-- {
		if got := Acquire(g.N()); got != released[i] {
			t.Fatalf("Acquire %d: got another solver than the one released %d-th", len(released)-i, i)
		}
	}
	if got := Acquire(g.N()); got == released[0] {
		t.Fatal("the least recently released solver outlived the GOMAXPROCS bound")
	}
}

// TestPoolConcurrentReplay walks a chain of epochs from several goroutines
// through the pool. Each solve lands on whichever solver the free list
// hands out — one holding the previous epoch, which replays, or another,
// which runs the full stage — and must answer as a fresh solver does.
// Under -race it probes the free list and the solvers' per-graph state.
func TestPoolConcurrentReplay(t *testing.T) {
	g, err := gen.UnitDisk(600, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := newChurn(g, 32, 9)
	chain := []*graph.Graph{g}
	for len(chain) < 12 {
		chain = append(chain, c.next(t, 4))
	}
	opt := Options{K: 3, Seed: 5, Workers: 1}
	want := make([]Result, len(chain))
	for i, ge := range chain {
		if want[i], err = New().Solve(ge, opt); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ge := range chain {
				s := Acquire(ge.N())
				got, err := s.Solve(ge, opt)
				if err != nil {
					t.Error(err)
				} else if !sameResult(got, want[i]) {
					t.Errorf("epoch %d: pooled solve differs from a fresh solver's", i)
				}
				Release(s)
			}
		}()
	}
	wg.Wait()
}

// sameResult reports whether two results are bit for bit equal.
func sameResult(a, b Result) bool {
	if a.Size != b.Size || a.JoinedRandom != b.JoinedRandom || a.JoinedFixup != b.JoinedFixup ||
		len(a.X) != len(b.X) || !slices.Equal(a.Set, b.Set) {
		return false
	}
	for v := range a.X {
		if math.Float64bits(a.X[v]) != math.Float64bits(b.X[v]) {
			return false
		}
	}
	return true
}
