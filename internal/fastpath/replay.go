package fastpath

import (
	"math/bits"

	"kwmds/internal/bitset"
	"kwmds/internal/core"
	"kwmds/internal/graph"
)

// This file is the solver's incremental path across epochs. A graph built
// by dyngraph's Commit remembers the graph it was derived from and the
// vertices whose adjacency lists changed (graph.Lineage). When a solver
// whose per-graph state belongs to that parent meets the child, it patches
// δ⁽¹⁾/δ⁽²⁾ on the distance-2 rings of the touched vertices (repairD2), and
// an Algorithm 3 LP stage of the same k replays the parent's recorded
// trajectory instead of running again (replay): vertices whose inputs
// agree with the record take its events, the rest are recomputed with the
// full stage's own arithmetic, so x is bit for bit the full stage's.

// repairFallbackNum/Den set the churn threshold of the repair: a derived
// graph keeps the solver's per-graph state only while the estimated repair
// frontier — Σ over touched vertices of (deg+1), scaled by the average
// closed-neighborhood size for the distance-2 expansion — stays below
// (n+m)·Num/Den, i.e. below the cost of the two dense passes it replaces.
// Above it the graph is solved as a new one. Graphs with n+2m below
// repairAlways always keep it: both paths take microseconds there, and
// taking the repair lets the small-graph churn tests and fuzzers drive the
// replay through arbitrary mutation batches. The cutover is pure
// heuristics, never semantics: both paths produce identical tables and LP
// stages, so the output is bit-identical either way.
const (
	repairFallbackNum = 1
	repairFallbackDen = 4
	repairAlways      = 1024
)

// LastLPReplayed reports whether the most recent Solve or Fractional
// computed its LP stage by replaying the previous epoch's trajectory
// (false: an LP memo hit or a full run). Observability only — both paths
// produce identical output; the churn benchmark and the churn tests use it
// to count the epochs that took the incremental path.
func (s *Solver) LastLPReplayed() bool { return s.lastReplayed }

// adopt decides, as prepare switches the solver to g, whether the
// per-graph state carries over. It does when g was derived from the
// solver's own graph, whose δ⁽¹⁾/δ⁽²⁾ tables are complete, and the repair
// beats the dense recompute: prepare then repairs the tables, and an LP
// memo of the solver's own graph becomes the parent memo the next LP stage
// replays (a memo that already belonged to a parent is two epochs old and
// is dropped). Otherwise everything is dropped.
func (s *Solver) adopt(g *graph.Graph) bool {
	parent, touched := g.Lineage()
	memo := s.lpValid && !s.lpParent
	if parent == nil || parent != s.g || !s.d2done || !repairPays(g, touched) {
		s.d2done, s.lpValid, s.lpParent, s.touched = false, false, false, nil
		return false
	}
	s.lpValid, s.lpParent, s.touched = memo, memo, touched
	return true
}

// repairPays applies the fallback threshold to g's touched vertices.
func repairPays(g *graph.Graph, touched []int32) bool {
	off, adj := g.CSR()
	n, m2 := g.N(), len(adj)
	if n+m2 < repairAlways {
		return true
	}
	// Repair visits touched ∪ N(touched) for δ⁽¹⁾ and one more ring for
	// δ⁽²⁾; estimate both rings by scaling the touched closed-neighborhood
	// mass with the average closed-neighborhood size.
	frontier := 0
	for _, v := range touched {
		frontier += int(off[v+1]-off[v]) + 1
	}
	avgN1 := (n + m2) / n // ≥ 1
	return frontier*(1+avgN1)*repairFallbackDen < (n+m2)*repairFallbackNum
}

// repairD2 patches the cached δ⁽¹⁾/δ⁽²⁾ tables after an epoch whose
// adjacency changed only at the touched vertices. δ⁽¹⁾(w) = max degree over
// N[w] can change only for w within distance 1 of a touched vertex (a
// touched vertex's own list changed; an untouched w keeps its list, and
// only the degrees of touched neighbors moved). δ⁽²⁾(w) = max δ⁽¹⁾ over
// N[w] can then change only one ring further out. Both sets are marked
// into the scratch bitsets (clear at this point, freshly reset by prepare)
// and recomputed exactly as the dense phases would — integer maxima over
// identical inputs, hence bit-identical tables. The vertices whose δ⁽²⁾
// changed go to the replay's DG set: Algorithm 3 starts from
// γ⁽²⁾ = δ⁽²⁾+1. The repair runs serially: by the fallback threshold's
// construction it touches a small fraction of the graph, below the
// dispatch overhead of the phase pool.
func (s *Solver) repairD2(touched []int32) {
	if s.rp == nil {
		s.rp = newReplayState()
	}
	s.rp.dg.Reset(s.n)
	dg := s.rp.dg.Words()
	ring1 := s.dirty.Words()
	ring2 := s.flipped.Words()
	for _, v := range touched {
		s.markNbhdSerial(ring1, v)
	}
	off, adj, d1, d2 := s.off, s.adj, s.d1, s.d2
	for wi, wd := range ring1 {
		for wd != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(wd))
			wd &= wd - 1
			m1 := off[v+1] - off[v]
			for _, u := range adj[off[v]:off[v+1]] {
				if deg := off[u+1] - off[u]; deg > m1 {
					m1 = deg
				}
			}
			d1[v] = m1
			s.markNbhdSerial(ring2, v)
		}
	}
	for wi, wd := range ring2 {
		ring2[wi] = 0
		for wd != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(wd))
			wd &= wd - 1
			m2 := d1[v]
			for _, u := range adj[off[v]:off[v+1]] {
				if d1[u] > m2 {
					m2 = d1[u]
				}
			}
			if m2 != d2[v] {
				dg[v>>6] |= bit(v)
			}
			d2[v] = m2
		}
	}
	clear(ring1)
}

// markNbhdSerial sets the bits of N[u] without the atomic path of markNbhd
// (the repair and the replay are single-goroutine by construction).
func (s *Solver) markNbhdSerial(words []uint64, u int32) {
	words[u>>6] |= bit(u)
	for _, nb := range s.adj[s.off[u]:s.off[u+1]] {
		words[nb>>6] |= bit(nb)
	}
}

// markNbhds sets the bits of N[v] in dst for every v in a ⊕ b, or in a
// when b is nil.
func (s *Solver) markNbhds(dst, a, b []uint64) {
	for wi, d := range a {
		if b != nil {
			d ^= b[wi]
		}
		for d != 0 {
			s.markNbhdSerial(dst, int32(wi<<6+bits.TrailingZeros64(d)))
			d &= d - 1
		}
	}
}

func bit(v int32) uint64 { return 1 << (uint32(v) & 63) }

func has(words []uint64, v int32) bool { return words[v>>6]&bit(v) != 0 }

// vval is a vertex with one integer value: a recorded x raise (val is
// a⁽¹⁾(v), and x(v) rose to powTabM[val] of its iteration) or a recorded
// γ⁽²⁾(v).
type vval struct{ v, val int32 }

// trajectory is the record of one Algorithm 3 LP stage, event by event:
// per inner iteration t = 0..k²−1, in the drivers' (ℓ, m) order, the
// activity set, the x raises and the white→gray transitions; per outer
// boundary b = 0..k−2 (after ℓ = k−1−b), γ⁽²⁾ of the support. Each list is
// ascending by vertex, as the chunk-order merge of the phases' per-chunk
// lists is, so the record does not depend on the worker count. Iterations
// after the white set emptied hold no events, which is what the stage would
// produce if it ran on.
type trajectory struct {
	maxDeg int // ∆ of the recorded graph: bounds the raise indices
	// Flat logs: iteration t is act[actOff[t]:actOff[t+1]], and alike.
	act, gray                 []int32
	raise, gamma              []vval
	actOff, raiseOff, grayOff []int
	gammaOff                  []int // boundary b is gamma[gammaOff[b]:gammaOff[b+1]]
}

func (r *trajectory) begin(maxDeg int) {
	r.maxDeg = maxDeg
	r.act, r.gray, r.raise, r.gamma = r.act[:0], r.gray[:0], r.raise[:0], r.gamma[:0]
	r.actOff = append(r.actOff[:0], 0)
	r.raiseOff = append(r.raiseOff[:0], 0)
	r.grayOff = append(r.grayOff[:0], 0)
	r.gammaOff = append(r.gammaOff[:0], 0)
}

func (r *trajectory) endIter() {
	r.actOff = append(r.actOff, len(r.act))
	r.raiseOff = append(r.raiseOff, len(r.raise))
	r.grayOff = append(r.grayOff, len(r.gray))
}

// finish pads the record to k² iterations and k−1 boundaries.
func (r *trajectory) finish(k int) {
	for len(r.actOff) <= k*k {
		r.endIter()
	}
	for len(r.gammaOff) < k {
		r.gammaOff = append(r.gammaOff, len(r.gamma))
	}
}

func (r *trajectory) iter(t int) (act []int32, raise []vval, gray []int32) {
	return r.act[r.actOff[t]:r.actOff[t+1]], r.raise[r.raiseOff[t]:r.raiseOff[t+1]], r.gray[r.grayOff[t]:r.grayOff[t+1]]
}

// addSet appends the members of b to the iteration's activity set.
func (r *trajectory) addSet(b *bitset.Set) {
	for wi, w := range b.Words() {
		for w != 0 {
			r.act = append(r.act, int32(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// addGamma records a boundary: γ⁽²⁾ of every support vertex. Other
// entries of gamma2 are stale and never read again, since a vertex never
// rejoins the support.
func (r *trajectory) addGamma(support *bitset.Set, gamma2 []int32) {
	for wi, w := range support.Words() {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			r.gamma = append(r.gamma, vval{v, gamma2[v]})
		}
	}
	r.gammaOff = append(r.gammaOff, len(r.gamma))
}

// replayState is the replay's scratch. The sets compare the run being
// replayed (new) with the recorded one (old).
type replayState struct {
	grayO *bitset.Set // the old run's gray set
	actO  *bitset.Set // the old run's activity set, this iteration
	dx    *bitset.Set // DX: x differs from the old run's
	dg    *bitset.Set // DG: γ⁽²⁾ may differ from the old run's
	da    *bitset.Set // Δa: a(v) may differ, this iteration
	front *bitset.Set // the phase's frontier
	tset  *bitset.Set // T: the touched vertices
	xOld  []float64   // the old run's x, valid on DX
	next  trajectory  // the record being written; swapped into s.rec
}

func newReplayState() *replayState {
	return &replayState{grayO: bitset.New(0), actO: bitset.New(0), dx: bitset.New(0),
		dg: bitset.New(0), da: bitset.New(0), front: bitset.New(0), tset: bitset.New(0)}
}

// replay computes the Algorithm 3 LP stage of k over the prepared graph
// from the trajectory s.rec of the same stage over its parent, and rewrites
// the record into this graph's. Inner iteration by inner iteration, every
// vertex takes its recorded event unless one of its inputs differs from
// the recorded run's; those vertices are recomputed with the full stage's
// arithmetic — the same math.Pow tables, the same self-then-sorted-
// neighbors sums — so x comes out bit for bit as the full stage computes
// it. With T the touched set, DX, DW and DG the vertices whose x, gray
// state or γ⁽²⁾ currently differ, and ΔA and Δa this iteration's differing
// activity and a(v), each phase recomputes one hop around them:
//
//   - activity at T ∪ N[DW] ∪ DG, where δ̃ or γ⁽²⁾ can differ;
//   - a(v) at T ∪ DW ∪ N[ΔA];
//   - x at T ∪ DX ∪ ΔA ∪ N[Δa];
//   - coverage at T ∪ DW ∪ N[DX];
//   - γ⁽²⁾ at an outer boundary on the 2-ball of T ∪ N[DW], for support
//     vertices.
//
// A vertex leaves DX, DG or Δa once its value equals the record's bit for
// bit. δ̃ is counted from the gray set on demand: keeping it current by
// decrement, as the full stage does, would cost O(n+m) per replay. The
// record never reads the parent's CSR. A canceled replay returns early; lp
// then leaves the memo, and with it the record, invalid.
func (s *Solver) replay(k int) {
	rp, old := s.rp, &s.rec
	rec := &rp.next
	n := s.n
	s.gray.Reset(n)
	s.active.Reset(n)
	rp.grayO.Reset(n)
	rp.actO.Reset(n)
	rp.dx.Reset(n)
	rp.da.Reset(n)
	rp.front.Reset(n)
	rp.tset.Reset(n)
	for _, v := range s.touched {
		rp.tset.Set(int(v))
	}
	rp.xOld = growF64(rp.xOld, n)
	for v := 0; v < n; v++ {
		s.x[v] = 0
		s.gamma2[v] = s.d2[v] + 1
	}
	s.whiteCount = n
	// Recorded raise indices are bounded by the parent's ∆+1.
	top := max(s.maxDeg, old.maxDeg) + 2
	s.powTabL = growF64(s.powTabL, top)
	s.powTabM = growF64(s.powTabM, top)
	rec.begin(s.maxDeg)
	t, b := 0, 0
	for l := k - 1; l >= 0 && s.whiteCount > 0; l-- {
		fillPowL(s.powTabL, l)
		for m := k - 1; m >= 0 && s.whiteCount > 0; m-- {
			if s.canceled() {
				return
			}
			fillPowM(s.powTabM, m)
			s.replayIter(old, rec, t)
			t++
		}
		if l > 0 && s.whiteCount > 0 {
			s.replayBoundary(old, rec, b)
		}
		b++
	}
	rec.finish(k)
	s.rec, rp.next = rp.next, s.rec
	s.lastReplayed = true
}

// replayIter replays inner iteration t of the old record into rec.
func (s *Solver) replayIter(old, rec *trajectory, t int) {
	rp := s.rp
	off, adj, x, xOld := s.off, s.adj, s.x, rp.xOld
	gw, gow := s.gray.Words(), rp.grayO.Words()
	aw, aow := s.active.Words(), rp.actO.Words()
	fw, tw := rp.front.Words(), rp.tset.Words()
	dxw, dgw, daw := rp.dx.Words(), rp.dg.Words(), rp.da.Words()
	powL, powM := s.powTabL, s.powTabM
	oldAct, oldRaise, oldGray := old.iter(t)

	// Activity (phaseA3Active): δ̃(v) ≥ 1 and δ̃(v) ≥ γ⁽²⁾^{ℓ/(ℓ+1)}·(1−ε).
	// Each phase below merges the old run's events, in vertex order, with
	// the frontier's recomputed ones, copying the runs between frontier
	// vertices in bulk.
	clear(aow)
	for _, v := range oldAct {
		aow[v>>6] |= bit(v)
	}
	copy(aw, aow)
	for wi := range fw {
		fw[wi] = tw[wi] | dgw[wi]
	}
	s.markNbhds(fw, gw, gow)
	j := 0
	for wi, w := range fw {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			j0 := j
			for j < len(oldAct) && oldAct[j] < v {
				j++
			}
			rec.act = append(rec.act, oldAct[j0:j]...)
			if j < len(oldAct) && oldAct[j] == v {
				j++
			}
			d := s.whiteIn(gw, v)
			if d >= 1 && float64(d) >= powL[s.gamma2[v]]*(1-core.ThrSlack) {
				aw[v>>6] |= bit(v)
				rec.act = append(rec.act, v)
			} else {
				aw[v>>6] &^= bit(v)
			}
		}
	}
	rec.act = append(rec.act, oldAct[j:]...)

	// a(v) (phaseA3Count), counted once per vertex on demand into s.acnt
	// (known marks the counted entries). A touched vertex's old count
	// cannot be rebuilt (its old neighborhood is gone), so it differs while
	// it is white in either run.
	known := s.support.Words()
	clear(known)
	for wi := range fw {
		fw[wi] = tw[wi] | (gw[wi] ^ gow[wi])
	}
	s.markNbhds(fw, aw, aow)
	clear(daw)
	for wi, w := range fw {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			var differs bool
			if has(tw, v) {
				differs = !has(gw, v) || !has(gow, v)
			} else {
				differs = s.aOnce(known, v) != s.aCount(gow, aow, v)
			}
			if differs {
				daw[v>>6] |= bit(v)
			}
		}
	}

	// x raises (phaseA3Update), merged with the old run's in vertex order.
	for wi := range fw {
		fw[wi] = tw[wi] | dxw[wi] | (aw[wi] ^ aow[wi])
	}
	s.markNbhds(fw, daw, nil)
	j = 0
	for wi, w := range fw {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			j0 := j
			for ; j < len(oldRaise) && oldRaise[j].v < v; j++ {
				x[oldRaise[j].v] = powM[oldRaise[j].val]
			}
			rec.raise = append(rec.raise, oldRaise[j0:j]...)
			xo := x[v] // the old run's x(v), after this iteration
			if has(dxw, v) {
				xo = xOld[v]
			}
			if j < len(oldRaise) && oldRaise[j].v == v {
				xo = powM[oldRaise[j].val]
				j++
			}
			if has(aw, v) {
				m1 := s.aOnce(known, v)
				for _, u := range adj[off[v]:off[v+1]] {
					if a := s.aOnce(known, u); a > m1 {
						m1 = a
					}
				}
				if m1 >= 1 && powM[m1] > x[v] {
					x[v] = powM[m1]
					rec.raise = append(rec.raise, vval{v, m1})
				}
			}
			if x[v] != xo {
				dxw[v>>6] |= bit(v)
				xOld[v] = xo
			} else {
				dxw[v>>6] &^= bit(v)
			}
		}
	}
	for _, e := range oldRaise[j:] {
		x[e.v] = powM[e.val]
	}
	rec.raise = append(rec.raise, oldRaise[j:]...)

	// Coverage (phaseCovRecheck): white v turns gray once the x-sum over
	// N[v], self first, then neighbors in CSR order, reaches 1−ε.
	for wi := range fw {
		fw[wi] = tw[wi] | (gw[wi] ^ gow[wi])
	}
	s.markNbhds(fw, dxw, nil)
	start := len(rec.gray)
	j = 0
	for wi, w := range fw {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			j0 := j
			for j < len(oldGray) && oldGray[j] < v {
				j++
			}
			rec.gray = append(rec.gray, oldGray[j0:j]...)
			if j < len(oldGray) && oldGray[j] == v {
				j++
			}
			if has(gw, v) {
				continue
			}
			sum := x[v]
			for _, u := range adj[off[v]:off[v+1]] {
				sum += x[u]
			}
			if sum >= 1-core.CovTol {
				rec.gray = append(rec.gray, v)
			}
		}
	}
	rec.gray = append(rec.gray, oldGray[j:]...)
	for _, v := range rec.gray[start:] {
		gw[v>>6] |= bit(v)
	}
	s.whiteCount -= len(rec.gray) - start
	for _, v := range oldGray {
		gow[v>>6] |= bit(v)
	}
	rec.endIter()
}

// replayBoundary recomputes γ⁽²⁾ at outer boundary b (phaseGamma1 and
// phaseGamma2) where it can differ from the old run's — support vertices
// on the 2-ball of T ∪ N[DW] — takes the old record's values elsewhere,
// and resets DG to the vertices whose value changed. δ̃ and γ⁽¹⁾ are
// computed once per vertex on demand, into s.dtil and s.gamma1.
func (s *Solver) replayBoundary(old, rec *trajectory, b int) {
	rp := s.rp
	gw, gow, tw := s.gray.Words(), rp.grayO.Words(), rp.tset.Words()
	ball, ring := rp.front.Words(), s.dirty.Words()
	copy(ball, tw)
	s.markNbhds(ball, gw, gow)
	clear(ring)
	s.markNbhds(ring, ball, nil)
	clear(ball)
	s.markNbhds(ball, ring, nil)
	clear(ring)
	known := s.support.Words() // s.dtil entries computed this boundary
	clear(known)
	dgw := rp.dg.Words()
	clear(dgw)
	off, adj := s.off, s.adj
	oldG := old.gamma[old.gammaOff[b]:old.gammaOff[b+1]]
	j := 0
	for wi, w := range ball {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			for ; j < len(oldG) && oldG[j].v < v; j++ {
				s.gamma2[oldG[j].v] = oldG[j].val
				rec.gamma = append(rec.gamma, oldG[j])
			}
			prev := int32(-1)
			if j < len(oldG) && oldG[j].v == v {
				prev = oldG[j].val
				j++
			}
			if s.dtilOnce(known, v) < 1 {
				continue // not in the support
			}
			g := s.gamma1Once(known, ring, v)
			for _, u := range adj[off[v]:off[v+1]] {
				if g1 := s.gamma1Once(known, ring, u); g1 > g {
					g = g1
				}
			}
			s.gamma2[v] = g
			rec.gamma = append(rec.gamma, vval{v, g})
			if g != prev {
				dgw[v>>6] |= bit(v)
			}
		}
	}
	for ; j < len(oldG); j++ {
		s.gamma2[oldG[j].v] = oldG[j].val
		rec.gamma = append(rec.gamma, oldG[j])
	}
	rec.gammaOff = append(rec.gammaOff, len(rec.gamma))
}

// dtilOnce returns δ̃(v) from s.dtil, counting it first unless known.
func (s *Solver) dtilOnce(known []uint64, v int32) int32 {
	if !has(known, v) {
		s.dtil[v] = s.whiteIn(s.gray.Words(), v)
		known[v>>6] |= bit(v)
	}
	return s.dtil[v]
}

// gamma1Once returns γ⁽¹⁾(u) = max δ̃ over N[u] from s.gamma1, computing
// it first unless marked in done.
func (s *Solver) gamma1Once(known, done []uint64, u int32) int32 {
	if !has(done, u) {
		m := s.dtilOnce(known, u)
		for _, w := range s.adj[s.off[u]:s.off[u+1]] {
			if d := s.dtilOnce(known, w); d > m {
				m = d
			}
		}
		s.gamma1[u] = m
		done[u>>6] |= bit(u)
	}
	return s.gamma1[u]
}

// whiteIn counts the white vertices of N[v] under gray set gw: δ̃(v).
func (s *Solver) whiteIn(gw []uint64, v int32) int32 {
	c := int32(0)
	if !has(gw, v) {
		c++
	}
	for _, u := range s.adj[s.off[v]:s.off[v+1]] {
		if !has(gw, u) {
			c++
		}
	}
	return c
}

// aOnce returns a(v) of the replayed run from s.acnt, counting it first
// unless known.
func (s *Solver) aOnce(known []uint64, v int32) int32 {
	if !has(known, v) {
		s.acnt[v] = s.aCount(s.gray.Words(), s.active.Words(), v)
		known[v>>6] |= bit(v)
	}
	return s.acnt[v]
}

// aCount is a(v) of the run with gray set gw and activity set aw: the
// active vertices of N[v] for white v, 0 for gray v.
func (s *Solver) aCount(gw, aw []uint64, v int32) int32 {
	if has(gw, v) {
		return 0
	}
	c := int32(0)
	if has(aw, v) {
		c++
	}
	for _, u := range s.adj[s.off[v]:s.off[v+1]] {
		if has(aw, u) {
			c++
		}
	}
	return c
}
