package fastpath

import (
	"fmt"
	"testing"

	"kwmds/internal/core"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/rounding"
	"kwmds/internal/testsupport"
)

// The acceptance bar of this package: for every workload, algorithm,
// rounding variant, seed and worker count, the fastpath output is
// bit-identical to the sequential references (and the references are
// pinned to the sim engine by internal/core's own determinism tests).
// CI runs this file under -race, which doubles as the forked sweeps'
// data-race probe.

func workloads(t *testing.T) []struct {
	name string
	g    *graph.Graph
} {
	t.Helper()
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-150", mk(gen.GNP(150, 0.05, 301))},
		{"udg-150", mk(gen.UnitDisk(150, 0.15, 302))},
		{"grid-12x12", mk(gen.Grid(12, 12))},
		{"tree-150", mk(gen.RandomTree(150, 303))},
	}
}

// workerCounts covers the inline sweeps, an uneven split of the sweeps'
// word range, more sweep goroutines than GOMAXPROCS, and the default. The
// counts reach only the forked sweeps; the LP phases that emit lists run
// on the calling goroutine at every count.
var workerCounts = []int{1, 3, 8, 0}

func costsFor(g *graph.Graph) []float64 {
	costs := make([]float64, g.N())
	for v := range costs {
		costs[v] = 1 + float64(v%7)
	}
	return costs
}

func sameX(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: |X| = %d, want %d", ctx, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: x[%d] = %v, want %v (must be bit-identical)", ctx, v, got[v], want[v])
		}
	}
}

func TestFractionalMatchesReferences(t *testing.T) {
	for _, w := range workloads(t) {
		costs := costsFor(w.g)
		for _, k := range []int{1, 2, 3} {
			ref2, err := core.ReferenceKnownDelta(w.g, k)
			if err != nil {
				t.Fatal(err)
			}
			ref3, err := core.Reference(w.g, k)
			if err != nil {
				t.Fatal(err)
			}
			refW, err := core.ReferenceWeighted(w.g, k, costs)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				s := New()
				x2, err := s.Fractional(w.g, Options{K: k, Algorithm: Alg2, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				sameX(t, w.name+" alg2", x2, ref2.X)
				x3, err := s.Fractional(w.g, Options{K: k, Algorithm: Alg3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				sameX(t, w.name+" alg3", x3, ref3.X)
				xw, err := s.Fractional(w.g, Options{K: k, Algorithm: AlgWeighted, Costs: costs, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				sameX(t, w.name+" weighted", xw, refW.X)
			}
		}
	}
}

func TestSolveMatchesReferencePipeline(t *testing.T) {
	s := New()
	for _, w := range workloads(t) {
		ref3, err := core.Reference(w.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7, 42} {
			for _, variant := range []rounding.Variant{rounding.Ln, rounding.LnMinusLnLn} {
				want, err := rounding.Reference(w.g, ref3.X, rounding.Options{Seed: seed, Variant: variant})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range workerCounts {
					got, err := s.Solve(w.g, Options{K: 2, Seed: seed, Variant: variant, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					sameX(t, w.name+" pipeline x", got.X, ref3.X)
					if got.Size != want.Size || got.JoinedRandom != want.JoinedRandom || got.JoinedFixup != want.JoinedFixup {
						t.Fatalf("%s seed %d %v workers %d: size/joins (%d,%d,%d), want (%d,%d,%d)",
							w.name, seed, variant, workers,
							got.Size, got.JoinedRandom, got.JoinedFixup,
							want.Size, want.JoinedRandom, want.JoinedFixup)
					}
					sameSet(t, fmt.Sprintf("%s seed %d %v workers %d", w.name, seed, variant, workers), got.Set, want.InDS)
					testsupport.AssertDominatingSetPacked(t, w.name+" fastpath", w.g, got.Set)
				}
			}
		}
	}
}

// TestRoundWithAliasedX covers the natural two-step use of one solver:
// Fractional, then Round over the returned (solver-aliased) x. Round must
// not clobber the vector it is about to read.
func TestRoundWithAliasedX(t *testing.T) {
	s := New()
	for _, w := range workloads(t) {
		x, err := s.Fractional(w.g, Options{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, err := rounding.Reference(w.g, x, rounding.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Round(w.g, x, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != want.Size || got.JoinedRandom != want.JoinedRandom {
			t.Fatalf("%s: aliased-x Round (size %d, random %d), want (%d, %d)",
				w.name, got.Size, got.JoinedRandom, want.Size, want.JoinedRandom)
		}
		sameSet(t, w.name+": aliased-x Round", got.Set, want.InDS)
	}
}

func TestRoundStandaloneMatchesReference(t *testing.T) {
	s := New()
	for _, w := range workloads(t) {
		ref3, err := core.Reference(w.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rounding.Reference(w.g, ref3.X, rounding.Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Round(w.g, ref3.X, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != want.Size {
			t.Fatalf("%s: standalone Round size %d, want %d", w.name, got.Size, want.Size)
		}
		sameSet(t, w.name+": standalone Round", got.Set, want.InDS)
	}
}

// TestPooledReuseAcrossGraphs drives one pooled solver through a sequence
// of different graphs and algorithms and checks every answer against a
// fresh solver: stale frontier state leaking across solves would show up
// immediately.
func TestPooledReuseAcrossGraphs(t *testing.T) {
	s := Acquire(1)
	defer Release(s)
	ws := workloads(t)
	order := []int{0, 2, 1, 3, 0, 3}
	for _, i := range order {
		g := ws[i].g
		for _, alg := range []Algorithm{Alg2, Alg3} {
			got, err := s.Fractional(g, Options{K: 2, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			want, err := New().Fractional(g, Options{K: 2, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			sameX(t, ws[i].name, got, want)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	s := New()
	empty := graph.MustNew(0, nil)
	x, err := s.Fractional(empty, Options{K: 3})
	if err != nil || len(x) != 0 {
		t.Errorf("empty graph: x=%v err=%v", x, err)
	}
	if _, err := s.Solve(empty, Options{K: 3}); err != nil {
		t.Errorf("empty graph solve: %v", err)
	}

	iso := graph.MustNew(5, nil)
	for _, alg := range []Algorithm{Alg2, Alg3} {
		x, err := s.Fractional(iso, Options{K: 3, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		for v, xv := range x {
			if xv != 1 {
				t.Errorf("isolated vertex %d has x=%v, want 1", v, xv)
			}
		}
	}

	if _, err := s.Fractional(iso, Options{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := s.Fractional(iso, Options{K: core.MaxK + 1}); err == nil {
		t.Error("k>MaxK accepted")
	}
	if _, err := s.Fractional(iso, Options{K: 2, Algorithm: AlgWeighted, Costs: []float64{1, 1}}); err == nil {
		t.Error("short cost vector accepted")
	}
	if _, err := s.Round(iso, []float64{1, 1}, Options{}); err == nil {
		t.Error("short x vector accepted")
	}
	if _, err := s.Round(iso, []float64{1, 1, 1, 1, -1}, Options{}); err == nil {
		t.Error("negative x accepted")
	}
	if _, err := s.Solve(nil, Options{K: 2}); err == nil {
		t.Error("nil graph accepted")
	}
}

// TestSolveZeroAlloc pins the allocation-free steady state: after one
// warm-up solve, repeat solves on the same solver allocate nothing
// (workers = 1, the serving configuration on a loaded box where each
// request gets one core's worth of solver). The miss cases alternate k so
// every solve runs the LP stage and refills its threshold tables; the
// memo-hit cases repeat one LP configuration with a new seed per solve, so
// only rounding runs; the derived case solves a chain of epochs committed
// beforehand, each replaying its parent's LP stage.
func TestSolveZeroAlloc(t *testing.T) {
	g, err := gen.UnitDisk(2000, 0.04, 11)
	if err != nil {
		t.Fatal(err)
	}
	costs := costsFor(g)
	for _, tc := range []struct {
		name string
		opts []Options
	}{
		{"miss", []Options{{K: 3}, {K: 2}}},
		{"miss alg2", []Options{{K: 3, Algorithm: Alg2}, {K: 2, Algorithm: Alg2}}},
		{"miss weighted", []Options{
			{K: 3, Algorithm: AlgWeighted, Costs: costs},
			{K: 2, Algorithm: AlgWeighted, Costs: costs},
		}},
		{"hit alg3", []Options{{K: 3}}},
		{"hit weighted", []Options{{K: 3, Algorithm: AlgWeighted, Costs: costs}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			seed := int64(7)
			solveAll := func() {
				for _, opt := range tc.opts {
					opt.Seed, opt.Workers = seed, 1
					seed++
					if _, err := s.Solve(g, opt); err != nil {
						t.Fatal(err)
					}
				}
			}
			solveAll()
			if allocs := testing.AllocsPerRun(3, solveAll); allocs != 0 {
				t.Errorf("steady-state Solve allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
	t.Run("derived", func(t *testing.T) {
		c := newChurn(g, 32, 5)
		chain := make([]*graph.Graph, 8)
		for i := range chain {
			chain[i] = c.next(t, 4)
		}
		s := New()
		opt := Options{K: 3, Workers: 1}
		if _, err := s.Solve(g, opt); err != nil {
			t.Fatal(err)
		}
		i := 0
		solveNext := func() {
			opt.Seed = int64(i)
			if _, err := s.Solve(chain[i], opt); err != nil {
				t.Fatal(err)
			}
			if !s.LastLPReplayed() {
				t.Fatalf("epoch %d: the LP stage was not replayed", i+1)
			}
			i++
		}
		solveNext()
		solveNext()
		if allocs := testing.AllocsPerRun(4, solveNext); allocs != 0 {
			t.Errorf("steady-state replayed Solve allocates %.1f objects per run, want 0", allocs)
		}
	})
}
