package fastpath

import (
	"fmt"
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/testsupport"
)

// The degree-ordered permuted sweep (Options.Relab) and the phase
// scheduler's worker count are pure execution-order knobs: every
// combination must reproduce the plain one-worker solve bit for bit. CI
// runs this file under -race and at GOMAXPROCS=4.

func TestRelabeledAndScheduledDeterminism(t *testing.T) {
	for _, w := range workloads(t) {
		costs := costsFor(w.g)
		rl := graph.Relabel(w.g)
		for _, alg := range []struct {
			name string
			opt  Options
		}{
			{"alg2", Options{K: 2, Algorithm: Alg2, Seed: 5}},
			{"alg3", Options{K: 3, Algorithm: Alg3, Seed: -11}},
			{"weighted", Options{K: 2, Algorithm: AlgWeighted, Costs: costs, Seed: 40}},
		} {
			base := alg.opt
			base.Workers = 1
			want, err := New().Solve(w.g, base)
			if err != nil {
				t.Fatal(err)
			}
			wantX := append([]float64(nil), want.X...)
			wantDS := append([]bool(nil), want.InDS...)
			s := New()
			for _, workers := range workerCounts {
				for _, relab := range []*graph.Relabeled{nil, rl} {
					opt := alg.opt
					opt.Workers, opt.Relab = workers, relab
					got, err := s.Solve(w.g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.Size != want.Size || got.JoinedRandom != want.JoinedRandom || got.JoinedFixup != want.JoinedFixup {
						t.Fatalf("%s %s workers=%d reorder=%v: counts (%d,%d,%d), want (%d,%d,%d)",
							w.name, alg.name, workers, relab != nil,
							got.Size, got.JoinedRandom, got.JoinedFixup,
							want.Size, want.JoinedRandom, want.JoinedFixup)
					}
					for v := range wantX {
						if got.X[v] != wantX[v] || got.InDS[v] != wantDS[v] {
							t.Fatalf("%s %s workers=%d reorder=%v: vertex %d diverges (x %v vs %v, inDS %v vs %v)",
								w.name, alg.name, workers, relab != nil,
								v, got.X[v], wantX[v], got.InDS[v], wantDS[v])
						}
					}
				}
			}
		}
	}
}

// TestRelabeledRoundStandalone pins the standalone Round entry under a
// relabeling: the caller's x is original-indexed (possibly aliasing a
// vector the solver returned) and the gather must not corrupt it.
func TestRelabeledRoundStandalone(t *testing.T) {
	for _, w := range workloads(t) {
		rl := graph.Relabel(w.g)
		s := New()
		x, err := s.Fractional(w.g, Options{K: 2, Relab: rl})
		if err != nil {
			t.Fatal(err)
		}
		want, err := New().Round(w.g, x, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Round over the solver-aliased x, with the relabeling active.
		got, err := s.Round(w.g, x, Options{Seed: 3, Relab: rl})
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != want.Size || got.JoinedRandom != want.JoinedRandom {
			t.Fatalf("%s: relabeled Round (size %d, random %d), want (%d, %d)",
				w.name, got.Size, got.JoinedRandom, want.Size, want.JoinedRandom)
		}
		for v := range want.InDS {
			if got.InDS[v] != want.InDS[v] {
				t.Fatalf("%s: relabeled Round InDS[%d] mismatch", w.name, v)
			}
		}
	}
}

// TestRelabeledSolveSequence runs one relabeled solver through a sequence
// that moves its LP memo between algorithms: every answer must match the
// plain solve of the same options.
func TestRelabeledSolveSequence(t *testing.T) {
	g, err := gen.GNP(200, 0.04, 77)
	if err != nil {
		t.Fatal(err)
	}
	rl := graph.Relabel(g)
	costs := costsFor(g)
	s := New()
	for i, opt := range []Options{
		{K: 2, Algorithm: Alg3, Seed: 1, Relab: rl},
		{K: 2, Algorithm: Alg3, Seed: 2, Relab: rl},
		{K: 2, Algorithm: AlgWeighted, Costs: costs, Seed: 3, Relab: rl},
		{K: 1, Algorithm: Alg2, Seed: 4, Relab: rl},
	} {
		got, err := s.Solve(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		solo := opt
		solo.Relab = nil
		want, err := New().Solve(g, solo)
		if err != nil {
			t.Fatal(err)
		}
		testsupport.RequireBitIdenticalIn(t, fmt.Sprintf("solve %d", i), got, want)
	}
}

func TestRelabValidation(t *testing.T) {
	g1, err := gen.GNP(60, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.GNP(60, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rl1 := graph.Relabel(g1)
	s := New()

	if _, err := s.Solve(g2, Options{K: 2, Relab: rl1}); err == nil {
		t.Error("Relab built from a different graph accepted by Solve")
	}

	d := dyngraph.New(g1)
	delta, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(delta, Options{K: 2, Relab: rl1}); err == nil {
		t.Error("Resolve accepted Options.Relab")
	}
}
