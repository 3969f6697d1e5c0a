package fastpath

import (
	"fmt"
	"math"

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
// its words of the flipped bitset outright; the draw is the first value of
// the per-node stream (stats.StreamFloat64) keyed by vertex id, exactly
// as rounding.flip draws it, so the coin flips match the other backends
// bit for bit.
func (s *Solver) phaseFlip(c int) {
	fw := s.flipped.Words()
	x, d2, scaleTab := s.curX, s.d2, s.scaleTab
	seed := s.curSeed
	joined := 0
	for wi := s.c0[c]; wi < s.c1[c]; wi++ {
		base := wi << 6
		top := 64
		if base+top > s.n {
			top = s.n - base
		}
		var dst uint64
		for b := 0; b < top; b++ {
			v := base + b
			p := math.Min(1, x[v]*scaleTab[d2[v]])
			if p >= 1 || (p > 0 && stats.StreamFloat64(seed, int64(v)) < p) {
				dst |= 1 << b
				joined++
			}
		}
		fw[wi] = dst
	}
	s.joinCnt[c][0] = joined
}

// phaseFixup joins every vertex whose closed neighborhood contains no
// line-3 member (reading only the flip results, as lines 5-6 prescribe)
// and materializes the final membership slice.
func (s *Solver) phaseFixup(c int) {
	fw := s.flipped.Words()
	off, adj, inDS := s.off, s.adj, s.inDS
	fix := 0
	for wi := s.c0[c]; wi < s.c1[c]; wi++ {
		base := wi << 6
		top := 64
		if base+top > s.n {
			top = s.n - base
		}
		for b := 0; b < top; b++ {
			v := base + b
			in := fw[wi]&(1<<b) != 0
			if !in {
				covered := false
				for _, u := range adj[off[v]:off[v+1]] {
					if fw[u>>6]&(1<<(uint32(u)&63)) != 0 {
						covered = true
						break
					}
				}
				if !covered {
					in = true
					fix++
				}
			}
			inDS[v] = in
		}
	}
	s.joinCnt[c][1] = fix
}
