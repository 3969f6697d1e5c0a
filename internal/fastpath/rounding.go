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
	res := Result{Set: s.set[:s.nw]}
	res.JoinedRandom = s.sweep(s.fnFlip)
	res.JoinedFixup = s.sweep(s.fnFixup)
	res.Size = res.JoinedRandom + res.JoinedFixup
	s.curX = nil
	return res
}

// phaseFlip decides line 3's independent membership flips for the words
// [w0, w1) of the flipped bitset, which it owns outright, and returns how
// many vertices joined. A vertex joins when its draw u,
// the first value of its per-node stream (stats.StreamFloat64, keyed by
// vertex id as rounding.flip draws it), is below x·Scale(δ⁽²⁾). That is
// line 3's u < min{1, p} without the clamp or a branch: u lies in [0, 1)
// and p is finite or +Inf and never negative (x is validated, Scale ≥ 0),
// so p ≥ 1 always joins and p = 0 never does, as the reference's early
// outs decide. The comparison sets the vertex's bit directly. Vertices are
// drawn four at a time (stats.StreamKey.Float64x4), so the four draws'
// multiply chains overlap; only the last word can end in a group of fewer
// than four, which draws one at a time.
func (s *Solver) phaseFlip(w0, w1 int) int {
	fw := s.flipped.Words()
	x, d2, scaleTab := s.curX[:s.n], s.d2[:s.n], s.scaleTab
	key := stats.NewStreamKey(s.curSeed)
	joined := 0
	for wi := w0; wi < w1; wi++ {
		base := wi << 6
		xs := x[base:min(base+64, s.n)]
		ds := d2[base : base+len(xs)]
		var dst uint64
		b := 0
		for ; b+4 <= len(xs); b += 4 {
			u0, u1, u2, u3 := key.Float64x4(int64(base + b))
			xq, dq := xs[b:b+4], ds[b:b+4]
			dst |= (b2u(u0 < xq[0]*scaleTab[dq[0]]) |
				b2u(u1 < xq[1]*scaleTab[dq[1]])<<1 |
				b2u(u2 < xq[2]*scaleTab[dq[2]])<<2 |
				b2u(u3 < xq[3]*scaleTab[dq[3]])<<3) << (b & 63)
		}
		for ; b < len(xs); b++ {
			dst |= b2u(key.Float64(int64(base+b)) < xs[b]*scaleTab[ds[b]]) << (b & 63)
		}
		fw[wi] = dst
		joined += bits.OnesCount64(dst)
	}
	return joined
}

// phaseFixup joins every vertex of the words [w0, w1) whose closed
// neighborhood contains no line-3 member (reading only the flip results,
// as lines 5-6 prescribe), stores each word's final set, flipped | joined,
// into the packed output and returns how many vertices joined. Per word
// it visits only the vertices that did not flip, reading the word's
// vertices as one block of the graph (graph.Graph.Block), so a paged graph
// costs one page lookup per word. One with at least four neighbors first
// ORs the flip bits of its first four without a branch; almost every such
// vertex is covered there, so the one branch on the OR is well predicted.
// Only when none of the four flipped, or the degree is below four, does it
// scan the rest until the first flipped neighbor.
func (s *Solver) phaseFixup(w0, w1 int) int {
	fw, set := s.flipped.Words(), s.set
	fix := 0
	for wi := w0; wi < w1; wi++ {
		base := wi << 6
		w := fw[wi]
		var join uint64
		off, adj := s.g.Block(wi) // word wi's vertices are block wi
		for open := ^w & (^uint64(0) >> (64 - (min(base+64, s.n) - base))); open != 0; open &= open - 1 {
			b := bits.TrailingZeros64(open)
			nb := adj[off[b]:off[b+1]]
			if len(nb) >= 4 {
				q := nb[:4]
				if (fw[q[0]>>6]>>(uint32(q[0])&63)|fw[q[1]>>6]>>(uint32(q[1])&63)|
					fw[q[2]>>6]>>(uint32(q[2])&63)|fw[q[3]>>6]>>(uint32(q[3])&63))&1 != 0 {
					continue
				}
				nb = nb[4:]
			}
			covered := false
			for _, u := range nb {
				if fw[u>>6]&(1<<(uint32(u)&63)) != 0 {
					covered = true
					break
				}
			}
			join |= b2u(!covered) << (b & 63)
		}
		fix += bits.OnesCount64(join)
		set[wi] = w | join
	}
	return fix
}

// b2u is 1 for true and 0 for false; the compiler turns it into a flag
// set, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
