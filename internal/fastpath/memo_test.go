package fastpath

import (
	"errors"
	"fmt"
	"testing"

	"kwmds/internal/graph"
	"kwmds/internal/testsupport"
)

// lpSentinel is planted in δ̃(0) before a run: resetLPState rewrites every
// δ̃ to deg+1 ≥ 1, so the sentinel survives exactly when the run skipped the
// LP stage.
const lpSentinel = -1

func plantSentinel(s *Solver) {
	if len(s.dtil) > 0 {
		s.dtil[0] = lpSentinel
	}
}

func lpSkipped(s *Solver) bool { return len(s.dtil) > 0 && s.dtil[0] == lpSentinel }

type memoKind int

const (
	memoSolve memoKind = iota
	memoFrac
	memoRound
	memoBatch
	memoRewrite // rewrite the shared cost slice in place; no run
)

// memoStep is one run on the shared solver. hit says whether the LP stage
// must be skipped; for a batch, hits gives it per element.
type memoStep struct {
	name   string
	kind   memoKind
	opt    Options
	batch  []Options
	hits   []bool
	cancel bool // run with a pre-closed Cancel: expect ErrCanceled
	hit    bool
}

// TestLPMemoMatchesFreshSolver drives one solver through runs that move the
// LP memo between hits and misses — k, algorithm, relabeling and weighted
// cost contents alternate; a canceled run, a standalone Round and a
// SolveMany batch sit in between — at worker counts 1, 3 and 0. Every
// answer must be bit-identical to a fresh solver's, and every step must hit
// or miss the memo as its configuration dictates.
func TestLPMemoMatchesFreshSolver(t *testing.T) {
	g := workloads(t)[1].g
	rl := graph.Relabel(g)
	costs := costsFor(g)
	rewrites := 0
	closed := make(chan struct{})
	close(closed)

	w := func(k int, seed int64) Options {
		return Options{K: k, Algorithm: AlgWeighted, Costs: costs, Seed: seed}
	}
	steps := []memoStep{
		{name: "alg3 k2", opt: Options{K: 2, Seed: 1}},
		{name: "alg3 k2 new seed", opt: Options{K: 2, Seed: 2}, hit: true},
		{name: "alg3 k2 fractional", kind: memoFrac, opt: Options{K: 2}, hit: true},
		{name: "round", kind: memoRound, opt: Options{K: 2, Seed: 3}, hit: true},
		{name: "alg3 k2 after round", opt: Options{K: 2, Seed: 4}, hit: true},
		{name: "alg3 k3", opt: Options{K: 3, Seed: 4}},
		{name: "alg3 k2 again", opt: Options{K: 2, Seed: 5}},
		{name: "alg2 k2", opt: Options{K: 2, Algorithm: Alg2, Seed: 5}},
		{name: "alg2 k2 new seed", opt: Options{K: 2, Algorithm: Alg2, Seed: 6}, hit: true},
		{name: "alg2 k2 relabeled", opt: Options{K: 2, Algorithm: Alg2, Seed: 6, Relab: rl}},
		{name: "alg2 k2 relabeled new seed", opt: Options{K: 2, Algorithm: Alg2, Seed: 7, Relab: rl}, hit: true},
		{name: "alg2 k2 plain", opt: Options{K: 2, Algorithm: Alg2, Seed: 7}},
		{name: "weighted", opt: w(2, 1)},
		{name: "weighted new seed", opt: w(2, 2), hit: true},
		{name: "rewrite costs", kind: memoRewrite},
		{name: "weighted after rewrite", opt: w(2, 2)},
		{name: "weighted after rewrite new seed", opt: w(2, 3), hit: true},
		{name: "weighted relabeled", opt: func() Options { o := w(2, 3); o.Relab = rl; return o }()},
		{name: "weighted relabeled new seed", opt: func() Options { o := w(2, 4); o.Relab = rl; return o }(), hit: true},
		{name: "rewrite costs again", kind: memoRewrite},
		{name: "weighted relabeled after rewrite", opt: func() Options { o := w(2, 4); o.Relab = rl; return o }()},
		{name: "canceled alg3 k2", opt: Options{K: 2, Seed: 1}, cancel: true},
		{name: "alg3 k2 after cancel", opt: Options{K: 2, Seed: 1}},
		{name: "canceled memo hit", opt: Options{K: 2, Seed: 8}, cancel: true, hit: true},
		{name: "alg3 k2 after canceled hit", opt: Options{K: 2, Seed: 9}, hit: true},
		{name: "batch", kind: memoBatch, batch: []Options{
			{K: 2, Seed: 10}, {K: 2, Seed: 11}, {K: 3, Seed: 1},
			{K: 3, Algorithm: Alg2, Seed: 1}, {K: 3, Algorithm: Alg2, Seed: 2},
		}, hits: []bool{true, true, false, false, true}},
		{name: "alg2 k3 after batch", opt: Options{K: 3, Algorithm: Alg2, Seed: 3}, hit: true},
	}

	s := New()
	for _, workers := range []int{1, 3, 0} {
		for _, st := range steps {
			ctx := fmt.Sprintf("workers %d, %s", workers, st.name)
			opt := st.opt
			opt.Workers = workers
			plantSentinel(s)
			switch st.kind {
			case memoRewrite:
				rewrites++
				for v := range costs {
					costs[v] = 1 + float64((v*5+rewrites)%9)
				}
				continue
			case memoSolve:
				if st.cancel {
					opt.Cancel = closed
					if _, err := s.Solve(g, opt); !errors.Is(err, ErrCanceled) {
						t.Fatalf("%s: err = %v, want ErrCanceled", ctx, err)
					}
					break
				}
				got, err := s.Solve(g, opt)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				want, err := New().Solve(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				testsupport.RequireBitIdenticalIn(t, ctx, got, want)
			case memoFrac:
				got, err := s.Fractional(g, opt)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				want, err := New().Fractional(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameX(t, ctx, got, want)
			case memoRound:
				x, err := New().Fractional(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Round(g, x, opt)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				want, err := New().Round(g, x, opt)
				if err != nil {
					t.Fatal(err)
				}
				testsupport.RequireBitIdenticalIn(t, ctx, got, want)
			case memoBatch:
				opts := make([]Options, len(st.batch))
				for i, o := range st.batch {
					o.Workers = workers
					opts[i] = o
				}
				err := s.SolveMany(g, opts, func(i int, got Result) {
					ectx := fmt.Sprintf("%s element %d", ctx, i)
					if skipped := lpSkipped(s); skipped != st.hits[i] {
						t.Errorf("%s: LP stage skipped = %v, want %v", ectx, skipped, st.hits[i])
					}
					want, err := New().Solve(g, opts[i])
					if err != nil {
						t.Fatal(err)
					}
					testsupport.RequireBitIdenticalIn(t, ectx, got, want)
					plantSentinel(s)
				})
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				continue
			}
			if skipped := lpSkipped(s); skipped != st.hit {
				t.Fatalf("%s: LP stage skipped = %v, want %v", ctx, skipped, st.hit)
			}
		}
	}
}
