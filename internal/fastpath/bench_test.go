package fastpath

import (
	"fmt"
	"testing"

	"kwmds/internal/core"
	"kwmds/internal/dyngraph"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/rounding"
)

// benchUDG is the benchmarks' workload: the 20k-vertex unit-disk graph of
// the experiment harness's quick Large tier.
func benchUDG(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.UnitDisk(20000, 0.014, 109)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// sweepWorkers are the benchmarks' worker counts: one runs every phase on
// the calling goroutine, two forks the four dense sweeps (δ⁽¹⁾, δ⁽²⁾, flip
// and fix-up).
var sweepWorkers = []int{1, 2}

// BenchmarkSolveFastpath is the perf-regression tripwire CI runs with
// -benchtime 1x: one full pooled-solver pipeline run on a 20k-vertex
// unit-disk graph. Each iteration drops the LP memo first, so it pays the
// LP stage as a first request on a topology would. b.ReportAllocs keeps
// the zero-steady-state-allocation property visible in the output.
func BenchmarkSolveFastpath(b *testing.B) {
	g := benchUDG(b)
	for _, workers := range sweepWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := Acquire(g.N())
			defer Release(s)
			opt := Options{K: 3, Seed: 1, Workers: workers}
			if _, err := s.Solve(g, opt); err != nil { // warm the buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.lpValid = false
				if _, err := s.Solve(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveMemoHit is the serving pattern on the same workload: one
// graph and LP configuration, a new seed per iteration, so the LP memo
// hits and each solve pays only the rounding stage. It reports that
// stage's cost per vertex as ns/vertex.
func BenchmarkSolveMemoHit(b *testing.B) {
	g := benchUDG(b)
	for _, workers := range sweepWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := Acquire(g.N())
			defer Release(s)
			opt := Options{K: 3, Seed: 1, Workers: workers}
			if _, err := s.Solve(g, opt); err != nil { // warm the buffers and the memo
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Seed = int64(i) + 2
				if _, err := s.Solve(g, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/vertex")
		})
	}
}

// roundBench returns a one-worker solver that has solved serve-cold's graph
// (udg-10k, radius 0.02) once, with the LP memo set as the rounding input:
// the state a memo-hit solve reaches before its flip. The benchmarks call
// each phase over the whole word range, as a one-worker sweep does.
func roundBench(b *testing.B) (*Solver, *graph.Graph) {
	b.Helper()
	g, err := gen.UnitDisk(10000, 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := New()
	if _, err := s.Solve(g, Options{K: 3, Seed: 1, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	s.curX = s.x[:s.n]
	return s, g
}

// BenchmarkRoundFlip times Algorithm 1's line 3 alone: one keyed draw per
// vertex against x·Scale(δ⁽²⁾), a new seed per iteration.
func BenchmarkRoundFlip(b *testing.B) {
	s, g := roundBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.curSeed = int64(i) + 2
		s.phaseFlip(0, s.nw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/vertex")
}

// BenchmarkRoundFixup times lines 5-6 alone: the coverage check of every
// unflipped vertex and the store of the packed set. Each iteration flips a
// new seed outside the timer, so the probe's branches meet a new pattern.
func BenchmarkRoundFixup(b *testing.B) {
	s, g := roundBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.curSeed = int64(i) + 2
		s.phaseFlip(0, s.nw)
		b.StartTimer()
		s.phaseFixup(0, s.nw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/vertex")
}

// BenchmarkRoundFixupPaged is BenchmarkRoundFixup over a paged snapshot of
// the same graph with half of its blocks paged — the most a commit leaves
// before it compacts — every other block, one intra-block edge toggled in
// each. The fix-up reads such a snapshot through its page table.
func BenchmarkRoundFixupPaged(b *testing.B) {
	s, g := roundBench(b)
	d := dyngraph.New(g)
	for blk := 0; blk < g.Blocks()/2; blk++ {
		u, v := 2*blk*graph.BlockSize, 2*blk*graph.BlockSize+1
		if d.AddEdge(u, v) != nil {
			if err := d.RemoveEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	delta, err := d.Commit()
	if err != nil {
		b.Fatal(err)
	}
	if paged := delta.Next.PagedBlocks(); paged != g.Blocks()/2 {
		b.Fatalf("%d of %d blocks paged, want %d", paged, g.Blocks(), g.Blocks()/2)
	}
	if _, err := s.Solve(delta.Next, Options{K: 3, Seed: 1, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	s.curX = s.x[:s.n]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.curSeed = int64(i) + 2
		s.phaseFlip(0, s.nw)
		b.StartTimer()
		s.phaseFixup(0, s.nw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/vertex")
}

// BenchmarkSolveDerived is the churn pattern: serve-churn's graph (udg-10k,
// radius 0.02) mutated as serve-churn mutates it — 4 edge toggles per
// epoch among 32 fixed vertex pairs — and each new epoch solved on the
// solver that solved the previous one, so the LP stage replays over the
// touched frontier. The commit runs outside the timer.
func BenchmarkSolveDerived(b *testing.B) {
	g, err := gen.UnitDisk(10000, 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := newChurn(g, 32, 7)
	s := Acquire(g.N())
	defer Release(s)
	opt := Options{K: 3, Seed: 1, Workers: 1}
	// Warm the buffers: the full stage, then two replays, which fill the
	// replay's scratch and both record buffers.
	for _, next := range []*graph.Graph{g, c.next(b, 4), c.next(b, 4)} {
		if _, err := s.Solve(next, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next := c.next(b, 4)
		b.StartTimer()
		opt.Seed = int64(i) + 2
		if _, err := s.Solve(next, opt); err != nil {
			b.Fatal(err)
		}
		if !s.LastLPReplayed() {
			b.Fatalf("epoch %d: the LP stage was not replayed", i+1)
		}
	}
}

// BenchmarkLPReplay times the LP replay alone: serve-churn's mutation
// pattern (4 edge toggles per epoch among 32 fixed vertex pairs) on
// unit-disk graphs of serve-churn's mean degree, each new epoch's
// Fractional on the solver that solved the previous one. The commit runs
// outside the timer. The replay follows its frontier, so its cost should
// barely grow with n.
func BenchmarkLPReplay(b *testing.B) {
	for _, tc := range []struct {
		name   string
		n      int
		radius float64
	}{
		{"udg-10k", 10000, 0.02},
		{"udg-100k", 100000, 0.0063},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := gen.UnitDisk(tc.n, tc.radius, 1)
			if err != nil {
				b.Fatal(err)
			}
			c := newChurn(g, 32, 7)
			s := Acquire(g.N())
			defer Release(s)
			opt := Options{K: 3, Workers: 1}
			for _, next := range []*graph.Graph{g, c.next(b, 4), c.next(b, 4)} {
				if _, err := s.Fractional(next, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				next := c.next(b, 4)
				b.StartTimer()
				if _, err := s.Fractional(next, opt); err != nil {
					b.Fatal(err)
				}
				if !s.LastLPReplayed() {
					b.Fatalf("epoch %d: the LP stage was not replayed", i+1)
				}
			}
		})
	}
}

// BenchmarkSolveReference is the matching baseline row: the sequential
// reference (instrumentation gated off) on the same workload.
func BenchmarkSolveReference(b *testing.B) {
	g := benchUDG(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ref, err := core.Reference(g, 3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rounding.Reference(g, ref.X, rounding.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
