package fastpath

import (
	"fmt"
	"math"
	"math/bits"

	"kwmds/internal/graph"
	"kwmds/internal/stats"
)

// Round runs the randomized rounding stage standalone over a caller-provided
// fractional solution (the same Algorithm 1 execution Solve performs after
// its LP stage). Result slices alias solver storage; Result.X is nil.
func (s *Solver) Round(g *graph.Graph, x []float64, opt Options) (Result, error) {
	if g != nil && len(x) != g.N() {
		return Result{}, fmt.Errorf("fastpath: %d x-values for %d vertices", len(x), g.N())
	}
	for i, xi := range x {
		if xi < 0 || math.IsNaN(xi) || math.IsInf(xi, 0) {
			return Result{}, fmt.Errorf("fastpath: x[%d] = %v invalid", i, xi)
		}
	}
	if err := s.prepare(g, opt); err != nil {
		return Result{}, err
	}
	defer s.stopWorkers()
	return s.roundPhases(x, opt), nil
}

// roundPhases executes Algorithm 1 over the prepared solver: δ⁽²⁾, the
// per-vertex coin flips (line 3), then the uncovered fix-up (lines 5-6).
func (s *Solver) roundPhases(x []float64, opt Options) Result {
	s.ensureD2()
	s.curX = x
	s.curSeed = opt.Seed
	// δ⁽²⁾ ≤ ∆, so the variant scaling — two logarithms per distinct
	// value — is tabulated once per round instead of computed per vertex:
	// ∆+1 calls against the O(n+m) rounding.
	s.scaleTab = growF64(s.scaleTab, s.maxDeg+1)
	for i := range s.scaleTab {
		s.scaleTab[i] = opt.Variant.Scale(i)
	}
	for c := 0; c < s.nchunks; c++ {
		s.joinCnt[c] = [2]int{}
	}
	s.dispatch(s.fnFlip)
	s.dispatch(s.fnFixup)
	res := Result{InDS: s.inDS[:s.n]}
	for c := 0; c < s.nchunks; c++ {
		res.JoinedRandom += s.joinCnt[c][0]
		res.JoinedFixup += s.joinCnt[c][1]
	}
	res.Size = res.JoinedRandom + res.JoinedFixup
	s.curX = nil
	return res
}

// phaseFlip decides line 3's independent membership flips. Each chunk owns
// its words of the flipped bitset outright. A vertex joins when its draw u,
// the first value of its per-node stream (stats.StreamFloat64, keyed by
// vertex id as rounding.flip draws it), is below x·Scale(δ⁽²⁾). That is
// line 3's u < min{1, p} without the clamp or a branch: u lies in [0, 1)
// and p is finite or +Inf and never negative (x is validated, Scale ≥ 0),
// so p ≥ 1 always joins and p = 0 never does, as the reference's early
// outs decide. The comparison sets the vertex's bit directly.
func (s *Solver) phaseFlip(c int) {
	fw := s.flipped.Words()
	x, d2, scaleTab := s.curX[:s.n], s.d2[:s.n], s.scaleTab
	key := stats.NewStreamKey(s.curSeed)
	joined := 0
	for wi := s.c0[c]; wi < s.c1[c]; wi++ {
		base := wi << 6
		xs, ds := x[base:min(base+64, s.n)], d2[base:]
		var dst uint64
		for b, xv := range xs {
			dst |= b2u(key.Float64(int64(base+b)) < xv*scaleTab[ds[b]]) << (b & 63)
		}
		fw[wi] = dst
		joined += bits.OnesCount64(dst)
	}
	s.joinCnt[c][0] = joined
}

// phaseFixup joins every vertex whose closed neighborhood contains no
// line-3 member (reading only the flip results, as lines 5-6 prescribe)
// and materializes the final membership slice. Per word it visits only the
// vertices that did not flip, each probing its neighbors until the first
// flipped one, and stores the word's final bits without branching.
func (s *Solver) phaseFixup(c int) {
	fw := s.flipped.Words()
	off, adj, inDS := s.off, s.adj, s.inDS
	fix := 0
	for wi := s.c0[c]; wi < s.c1[c]; wi++ {
		base := wi << 6
		ds := inDS[base:min(base+64, s.n)]
		w := fw[wi]
		var join uint64
		for open := ^w & (^uint64(0) >> (64 - len(ds))); open != 0; open &= open - 1 {
			b := bits.TrailingZeros64(open)
			v := base + b
			covered := false
			for _, u := range adj[off[v]:off[v+1]] {
				if fw[u>>6]&(1<<(uint32(u)&63)) != 0 {
					covered = true
					break
				}
			}
			join |= b2u(!covered) << (b & 63)
		}
		fix += bits.OnesCount64(join)
		w |= join
		for b := range ds {
			ds[b] = w>>(b&63)&1 != 0
		}
	}
	s.joinCnt[c][1] = fix
}

// b2u is 1 for true and 0 for false; the compiler turns it into a flag
// set, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
