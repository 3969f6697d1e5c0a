package fastpath

import (
	"fmt"
	"math"
	"math/bits"

	"kwmds/internal/graph"
	"kwmds/internal/rounding"
	"kwmds/internal/stats"
)

// Round runs the randomized rounding stage standalone over a caller-provided
// fractional solution (the same Algorithm 1 execution Solve performs after
// its LP stage). Result slices alias solver storage; Result.X is nil. An x
// that is the slice Fractional returned on this solver rounds with the
// thresholds the solver keeps for it; any other x gets thresholds built
// for this call.
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
// The solver keeps the thresholds of its own x, the LP memo, so they are
// built once per LP result and variant and a memo hit reuses them; any
// other x (a caller's, in standalone Round) gets thresholds for this run
// alone.
func (s *Solver) roundPhases(x []float64, opt Options) Result {
	s.ensureD2()
	own := len(x) > 0 && &x[0] == &s.x[0]
	if !own || !s.thrOK || s.thrVar != opt.Variant {
		s.buildThr(x, opt.Variant)
		s.thrOK = own
	}
	s.curSeed = opt.Seed
	res := Result{Set: s.set[:s.nw]}
	res.JoinedRandom = s.sweep(s.fnFlip)
	res.JoinedFixup = s.sweep(s.fnFixup)
	res.Size = res.JoinedRandom + res.JoinedFixup
	return res
}

// buildThr fills thr with the thresholds of x over δ⁽²⁾ under variant.
// δ⁽²⁾ ≤ ∆, so the variant scaling — two logarithms per distinct value —
// is tabulated first: ∆+1 calls against the O(n) sweep.
func (s *Solver) buildThr(x []float64, variant rounding.Variant) {
	s.scaleTab = growF64(s.scaleTab, s.maxDeg+1)
	for i := range s.scaleTab {
		s.scaleTab[i] = variant.Scale(i)
	}
	s.curX = x
	s.sweep(s.fnThr)
	s.curX = nil
	s.thrVar = variant
}

// phaseThr fills the thresholds of the vertices of words [w0, w1).
func (s *Solver) phaseThr(w0, w1 int) int {
	x, d2, thr, scaleTab := s.curX, s.d2, s.thr, s.scaleTab
	for v, v1 := w0<<6, min(w1<<6, s.n); v < v1; v++ {
		thr[v] = threshold(x[v] * scaleTab[d2[v]])
	}
	return 0
}

// patchThr keeps v's threshold exact after s.x[v] or δ⁽²⁾(v) changed
// outside a full LP stage: in the repair and in the replay's rewrite.
// Scale(δ⁽²⁾) is the table's own call, so the patch equals a rebuild.
func (s *Solver) patchThr(v int32) {
	if s.thrOK {
		s.thr[v] = threshold(s.x[v] * s.thrVar.Scale(int(s.d2[v])))
	}
}

// threshold returns the join threshold of p = x·Scale(δ⁽²⁾) on a draw's
// 53 bits m: m < threshold(p) exactly when the reference's u = m/2⁵³ is
// below p. Both m/2⁵³ and p·2⁵³ are exact, since scaling by a power of two
// is, so for p·2⁵³ < 2⁵³ the m that qualify are those below its ceiling.
// p ≥ 1, +Inf included, admits every m < 2⁵³, and p = 0 none: line 3's
// u < min{1, p} with the reference's early outs. p is never negative or
// NaN (x is validated finite and nonnegative, Scale ≥ 0 is finite).
func threshold(p float64) uint64 {
	q := p * (1 << 53)
	if q >= 1<<53 {
		return 1 << 53
	}
	return uint64(math.Ceil(q))
}

// phaseFlip decides line 3's independent membership flips for the words
// [w0, w1) of the flipped bitset, which it owns outright, and returns how
// many vertices joined. A vertex joins when the 53 bits of its draw — the
// first value of its per-node stream (stats.StreamFloat64, keyed by vertex
// id as rounding.flip draws it) before the division by 2⁵³ — are below its
// threshold. The seed's half of the stream mix is computed once per run
// (stats.StreamKey) and the vertex's half read from half, so a draw is one
// SplitMix64, the PCG seeding and one PCG step. The comparison sets the
// vertex's bit directly, with no branch. Vertices are drawn four at a time
// (stats.StreamKey.Bits53x4), so the four draws' multiply chains overlap;
// only the last word can end in a group of fewer than four, which draws
// one at a time.
func (s *Solver) phaseFlip(w0, w1 int) int {
	fw := s.flipped.Words()
	half, thr := s.half[:s.n], s.thr[:s.n]
	key := stats.NewStreamKey(s.curSeed)
	joined := 0
	for wi := w0; wi < w1; wi++ {
		base := wi << 6
		hs := half[base:min(base+64, s.n)]
		ts := thr[base : base+len(hs)]
		var dst uint64
		b := 0
		for ; b+4 <= len(hs); b += 4 {
			hq, tq := hs[b:b+4], ts[b:b+4]
			m0, m1, m2, m3 := key.Bits53x4(hq[0], hq[1], hq[2], hq[3])
			dst |= (b2u(m0 < tq[0]) | b2u(m1 < tq[1])<<1 | b2u(m2 < tq[2])<<2 | b2u(m3 < tq[3])<<3) << (b & 63)
		}
		for ; b < len(hs); b++ {
			dst |= b2u(key.Bits53(hs[b]) < ts[b]) << (b & 63)
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
// costs one page lookup per word. A first pass ORs, for each such vertex
// with at least four neighbors, the flip bits of its first four into the
// word's probed mask, with no branch on what it finds; almost every vertex
// is covered there. A second pass scans the rest of the list, until the
// first flipped neighbor, only for the vertices the probe left: those none
// of whose first four flipped, and those of degree below four.
func (s *Solver) phaseFixup(w0, w1 int) int {
	fw, set := s.flipped.Words(), s.set
	fix := 0
	for wi := w0; wi < w1; wi++ {
		base := wi << 6
		w := fw[wi]
		open := ^w & (^uint64(0) >> (64 - (min(base+64, s.n) - base)))
		off, adj := s.g.Block(wi) // word wi's vertices are block wi
		var probed uint64
		for o := open; o != 0; o &= o - 1 {
			b := bits.TrailingZeros64(o)
			if lo := off[b]; off[b+1]-lo >= 4 {
				q := adj[lo : lo+4]
				probed |= (fw[q[0]>>6]>>(uint32(q[0])&63) | fw[q[1]>>6]>>(uint32(q[1])&63) |
					fw[q[2]>>6]>>(uint32(q[2])&63) | fw[q[3]>>6]>>(uint32(q[3])&63)) & 1 << (b & 63)
			}
		}
		var join uint64
		for o := open &^ probed; o != 0; o &= o - 1 {
			b := bits.TrailingZeros64(o)
			nb := adj[off[b]:off[b+1]]
			if len(nb) >= 4 {
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
