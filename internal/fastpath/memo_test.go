package fastpath

import (
	"errors"
	"fmt"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/rounding"
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
	memoRewrite // rewrite the shared cost slice in place; no run
)

// memoStep is one run on the shared solver. hit says whether the LP stage
// must be skipped.
type memoStep struct {
	name   string
	kind   memoKind
	opt    Options
	cancel bool // run with a pre-closed Cancel: expect ErrCanceled
	hit    bool
}

// TestLPMemoMatchesFreshSolver drives one solver through runs that move the
// LP memo between hits and misses — k, algorithm and weighted cost
// contents alternate; a canceled run and a standalone Round sit in
// between — at worker counts 1, 3 and 0. Every answer must be
// bit-identical to a fresh solver's, and every step must hit or miss the
// memo as its configuration dictates.
func TestLPMemoMatchesFreshSolver(t *testing.T) {
	g := workloads(t)[1].g
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
		{name: "weighted", opt: w(2, 1)},
		{name: "weighted new seed", opt: w(2, 2), hit: true},
		{name: "rewrite costs", kind: memoRewrite},
		{name: "weighted after rewrite", opt: w(2, 2)},
		{name: "weighted after rewrite new seed", opt: w(2, 3), hit: true},
		{name: "rewrite costs again", kind: memoRewrite},
		{name: "weighted after second rewrite", opt: w(2, 4)},
		{name: "canceled alg3 k2", opt: Options{K: 2, Seed: 1}, cancel: true},
		{name: "alg3 k2 after cancel", opt: Options{K: 2, Seed: 1}},
		{name: "canceled memo hit", opt: Options{K: 2, Seed: 8}, cancel: true, hit: true},
		{name: "alg3 k2 after canceled hit", opt: Options{K: 2, Seed: 9}, hit: true},
		{name: "alg3 k2 seed 10", opt: Options{K: 2, Seed: 10}, hit: true},
		{name: "alg3 k2 seed 11", opt: Options{K: 2, Seed: 11}, hit: true},
		{name: "alg3 k3 after k2", opt: Options{K: 3, Seed: 1}},
		{name: "alg2 k3 after alg3", opt: Options{K: 3, Algorithm: Alg2, Seed: 1}},
		{name: "alg2 k3 new seed", opt: Options{K: 3, Algorithm: Alg2, Seed: 2}, hit: true},
		{name: "alg2 k3 third seed", opt: Options{K: 3, Algorithm: Alg2, Seed: 3}, hit: true},
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
			}
			if skipped := lpSkipped(s); skipped != st.hit {
				t.Fatalf("%s: LP stage skipped = %v, want %v", ctx, skipped, st.hit)
			}
		}
	}
}

// seqOpts is a sequence of solves over one graph: runs of one LP
// configuration (varying only seed and variant) interleaved with switches
// of k, algorithm and weights, so a solver running it in order moves its
// LP memo between hits and misses.
func seqOpts(n int, workers int) []Options {
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1 + float64(i%7)/2
	}
	return []Options{
		{K: 3, Seed: 1, Workers: workers},
		{K: 3, Seed: 2, Workers: workers},
		{K: 3, Seed: 2, Variant: rounding.LnMinusLnLn, Workers: workers},
		{K: 4, Seed: 2, Workers: workers}, // k switch → LP re-run
		{K: 4, Seed: 9, Workers: workers},
		{K: 4, Seed: 9, Algorithm: Alg2, Workers: workers}, // algorithm switch
		{K: 4, Seed: 10, Algorithm: Alg2, Workers: workers},
		{K: 3, Seed: 1, Algorithm: AlgWeighted, Costs: costs, Workers: workers},
		{K: 3, Seed: 5, Algorithm: AlgWeighted, Costs: costs, Workers: workers},
		{K: 3, Seed: 5, Workers: workers}, // back to Alg3
	}
}

// TestSolveManyMatchesSolo runs the many options of seqOpts in order
// through Solve on one pooled solver, which may arrive holding another
// test's graph and memo: every answer must be bit-identical to a fresh
// solver's, at every worker count.
func TestSolveManyMatchesSolo(t *testing.T) {
	for _, wl := range workloads(t) {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", wl.name, workers), func(t *testing.T) {
				s := Acquire(wl.g.N())
				defer Release(s)
				for i, opt := range seqOpts(wl.g.N(), workers) {
					got, err := s.Solve(wl.g, opt)
					if err != nil {
						t.Fatal(err)
					}
					want, err := New().Solve(wl.g, opt)
					if err != nil {
						t.Fatal(err)
					}
					testsupport.RequireBitIdenticalIn(t, fmt.Sprintf("solve %d", i), got, want)
				}
			})
		}
	}
}

// TestSolveManyPooled: a pooled solver that already ran a solve with
// another k and seed must answer the seqOpts sequence exactly as fresh
// solvers do (the LP memo and δ⁽²⁾ tables must not leak state).
func TestSolveManyPooled(t *testing.T) {
	wl := workloads(t)[1]
	s := Acquire(wl.g.N())
	defer Release(s)
	if _, err := s.Solve(wl.g, Options{K: 5, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	for i, opt := range seqOpts(wl.g.N(), 2) {
		got, err := s.Solve(wl.g, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New().Solve(wl.g, opt)
		if err != nil {
			t.Fatal(err)
		}
		testsupport.RequireBitIdenticalIn(t, fmt.Sprintf("solve %d", i), got, want)
	}
}

// TestMemoMissListPhasesStayOnCaller pins that the LP phases which emit
// lists or mark across word ranges never fork. Algorithm 2's and the
// weighted variant's LP stages use only such phases, and a forked phase
// allocates for its goroutines, so at eight workers a memo-missing
// Fractional of either must allocate nothing, as its one-worker twin in
// TestSolveZeroAlloc does.
func TestMemoMissListPhasesStayOnCaller(t *testing.T) {
	g, err := gen.UnitDisk(2000, 0.04, 11)
	if err != nil {
		t.Fatal(err)
	}
	costs := costsFor(g)
	for _, alg := range []Algorithm{Alg2, AlgWeighted} {
		s := New()
		opt := Options{K: 3, Algorithm: alg, Costs: costs, Workers: 8}
		miss := func() {
			s.lpValid = false
			if _, err := s.Fractional(g, opt); err != nil {
				t.Fatal(err)
			}
		}
		miss()
		if s.workers != 8 {
			t.Fatalf("alg %d: %d sweep workers, want 8", alg, s.workers)
		}
		if allocs := testing.AllocsPerRun(3, miss); allocs != 0 {
			t.Errorf("alg %d: a memo-missing LP stage at 8 workers allocates %.1f objects, want 0", alg, allocs)
		}
	}
}
