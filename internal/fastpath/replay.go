package fastpath

import (
	"cmp"
	"math"
	"slices"

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
	n, m2 := g.N(), 2*g.M()
	if n+m2 < repairAlways {
		return true
	}
	// Repair visits touched ∪ N(touched) for δ⁽¹⁾ and one more ring for
	// δ⁽²⁾; estimate both rings by scaling the touched closed-neighborhood
	// mass with the average closed-neighborhood size.
	frontier := 0
	for _, v := range touched {
		frontier += g.Degree(int(v)) + 1
	}
	avgN1 := (n + m2) / n // ≥ 1
	return frontier*(1+avgN1)*repairFallbackDen < (n+m2)*repairFallbackNum
}

// repairD2 patches the cached δ⁽¹⁾/δ⁽²⁾ tables after an epoch whose
// adjacency changed only at the touched vertices. δ⁽¹⁾(w) = max degree over
// N[w] can change only for w within distance 1 of a touched vertex (a
// touched vertex's own list changed; an untouched w keeps its list, and
// only the degrees of touched neighbors moved). δ⁽²⁾(w) = max δ⁽¹⁾ over
// N[w] can then change only at a touched w or next to a vertex whose δ⁽¹⁾
// changed. Both sets are collected as vertex sets and recomputed exactly
// as the dense phases would — integer maxima over identical inputs, hence
// bit-identical tables. The vertices whose δ⁽²⁾ changed go to the replay's
// DG set, Algorithm 3 starting from γ⁽²⁾ = δ⁽²⁾+1, and get their flip
// thresholds patched. The repair runs serially:
// by the fallback threshold's construction it touches a small fraction of
// the graph, too little to pay for forking a sweep.
func (s *Solver) repairD2(touched []int32) {
	if s.rp == nil {
		s.rp = &replayState{}
	}
	rp := s.rp
	rp.dg.reset()
	rp.size(s.n)
	ring1, ring2 := &rp.ring, &rp.front
	for _, v := range touched {
		s.addNbhd(ring1, v)
		ring2.add(v)
	}
	g, d1, d2 := s.g, s.d1, s.d2
	for _, v := range ring1.list {
		nb := g.Neighbors(int(v))
		m1 := int32(len(nb))
		for _, u := range nb {
			m1 = max(m1, int32(g.Degree(int(u))))
		}
		if m1 != d1[v] {
			d1[v] = m1
			s.addNbhd(ring2, v)
		}
	}
	for _, v := range ring2.list {
		m2 := d1[v]
		for _, u := range g.Neighbors(int(v)) {
			m2 = max(m2, d1[u])
		}
		if m2 != d2[v] {
			rp.dg.add(v)
			d2[v] = m2
			s.patchThr(v)
		}
	}
	ring1.reset()
	ring2.reset()
}

func bit(v int32) uint64 { return 1 << (uint32(v) & 63) }

// vset is a vertex set kept both as a bitset over n and as a list that
// holds every member (and possibly former members, whose bits were
// cleared), so that building, walking and emptying it cost O(list), never
// O(n). Every vset of the replay is empty between replays.
type vset struct {
	words []uint64
	list  []int32
}

func (s *vset) has(v int32) bool { return s.words[v>>6]&bit(v) != 0 }

// add inserts v.
func (s *vset) add(v int32) {
	if s.words[v>>6]&bit(v) == 0 {
		s.words[v>>6] |= bit(v)
		s.list = append(s.list, v)
	}
}

// put sets v's membership; a removed v stays on the list until refilter.
func (s *vset) put(v int32, in bool) {
	if in {
		s.add(v)
	} else {
		s.words[v>>6] &^= bit(v)
	}
}

// refilter rebuilds the list from f, a superset of the members.
func (s *vset) refilter(f []int32) {
	s.list = s.list[:0]
	for _, v := range f {
		if s.has(v) {
			s.list = append(s.list, v)
		}
	}
}

// reset empties the set. Every set bit belongs to a listed vertex, so
// zeroing the listed vertices' words zeroes the bitset.
func (s *vset) reset() {
	for _, v := range s.list {
		s.words[v>>6] = 0
	}
	s.list = s.list[:0]
}

// size readies an empty set for n vertices. The list starts with room for
// an eighth of them, so that a replay's frontiers, local by Theorem 5,
// rarely grow it after the first.
func (s *vset) size(n int) {
	nw := (n + 63) / 64
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
		s.list = make([]int32, 0, min(n, n/8+256))
	}
	s.words = s.words[:nw]
}

// addNbhd adds N[u] to f.
func (s *Solver) addNbhd(f *vset, u int32) {
	f.add(u)
	for _, w := range s.g.Neighbors(int(u)) {
		f.add(w)
	}
}

// vval is a vertex with one integer value.
type vval struct{ v, val int32 }

// vdiff is a change to a vertex's recorded events: its event at time at
// becomes val, or goes away when val is −1. A diff at time endOfRun drops
// every recorded event of the vertex later than val instead.
type vdiff struct{ v, at, val int32 }

const endOfRun = math.MaxInt32

// replayState is the replay's scratch. The sets compare the run being
// replayed (new) with the recorded one (old).
type replayState struct {
	tset  vset      // T: the touched vertices
	dx    vset      // DX: x differs from the old run's
	dw    vset      // DW: gray state differs from the old run's
	dg    vset      // DG: γ⁽²⁾ may differ from the old run's
	dA    vset      // ΔA: activity differs, this iteration
	da    vset      // Δa: a(v) may differ, this iteration
	near  vset      // N[Δa]; at an outer boundary, D = T ∪ N[DW]
	front vset      // the phase's frontier
	ring  vset      // the boundary's N[D]; γ⁽¹⁾ computed (done)
	known vset      // s.acnt (or at a boundary s.dtil) entries computed
	xNew  []float64 // the new run's x, valid on DX
	nd    int       // vertices gray in the new run only, minus those gray in the old only
	k     int
	top   int       // entries per x table
	powX  []float64 // x tables: powX[j·top+i] = i^{-m/(m+1)} for m = k−1−j
	diffs []vdiff   // span changes, applied when the replay ends
	grays []vval    // grayAt changes in time order, applied likewise
	span  []event   // a rewritten span
}

// size readies every set for n vertices.
func (rp *replayState) size(n int) {
	for _, s := range rp.sets() {
		s.size(n)
	}
}

// empty empties every set, as a canceled replay leaves them.
func (rp *replayState) empty() {
	for _, s := range rp.sets() {
		s.reset()
	}
}

func (rp *replayState) sets() [10]*vset {
	return [10]*vset{&rp.tset, &rp.dx, &rp.dw, &rp.dg, &rp.dA, &rp.da, &rp.near, &rp.front, &rp.ring, &rp.known}
}

// replay computes the Algorithm 3 LP stage of k over the prepared graph
// from the record s.rec of the same stage over its parent, and rewrites
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
//   - x at T ∪ DX ∪ ΔA ∪ N[Δa], recounting a⁽¹⁾ at T ∪ N[Δa] and at
//     vertices the old run had inactive;
//   - coverage at T ∪ DW ∪ N[DX];
//   - γ⁽²⁾ at an outer boundary on the 2-ball of T ∪ N[DW], for support
//     vertices.
//
// A vertex leaves DX, DW or DG once its value equals the record's bit for
// bit. The new run's state is never materialized over n: a vertex outside
// the difference sets reads it from its recorded events (x and a⁽¹⁾ from
// its activity, gray from grayAt), one inside reads the difference (xNew,
// the flipped gray or activity bit, s.gamma2). δ̃ and a(v) are counted on
// demand. Every set is a vset, so the frontiers are built, walked and
// emptied in O(frontier). The changes to the record are collected as the
// replay goes and applied at its end (rewrite), so the record reads as the
// old run's throughout; s.x, the parent's final x, is patched on DX there
// too. A replay therefore reads and writes only its frontier's entries.
// The record never reads the parent's CSR. A canceled replay returns
// early, with its sets emptied; lp then leaves the memo, and with it the
// record, invalid.
func (s *Solver) replay(k int) {
	rp, rec := s.rp, &s.rec
	rec.ready()
	n := s.n
	rp.size(n)
	for _, v := range s.touched {
		rp.tset.add(v)
	}
	// Both runs start from γ⁽²⁾ = δ⁽²⁾+1; DG holds the vertices whose δ⁽²⁾
	// the repair changed.
	for _, v := range rp.dg.list {
		s.gamma2[v] = s.d2[v] + 1
	}
	rp.xNew = growF64(rp.xNew, n)
	// Raise indices are bounded by ∆+1 of either graph, γ⁽²⁾ likewise.
	rp.k, rp.top = k, max(s.maxDeg, rec.maxDeg)+2
	rp.powX = growF64(rp.powX, k*rp.top)
	for j := 0; j < k; j++ {
		fillPowM(rp.powX[j*rp.top:(j+1)*rp.top], k-1-j)
	}
	s.powTabL = growF64(s.powTabL, rp.top)
	rp.diffs, rp.grays, rp.nd = rp.diffs[:0], rp.grays[:0], 0
	s.whiteCount = n
	t, last := 0, int32(-1) // last: the time of the run's last step
	for l := k - 1; l >= 0 && s.whiteCount > 0; l-- {
		fillPowL(s.powTabL, l)
		for m := k - 1; m >= 0 && s.whiteCount > 0; m-- {
			if s.canceled() {
				rp.empty()
				return
			}
			s.replayIter(t)
			last = int32(2 * t)
			t++
		}
		if l > 0 && s.whiteCount > 0 {
			s.replayBoundary(t - 1)
			last = int32(2*t - 1)
		}
	}
	clear(rec.white[t:])
	s.rewrite(last)
	rp.empty()
	s.lastReplayed = true
}

// powM returns the x table of inner iteration t.
func (rp *replayState) powM(t int) []float64 {
	j := t % rp.k
	return rp.powX[j*rp.top : (j+1)*rp.top]
}

// replayIter replays inner iteration t.
func (s *Solver) replayIter(t int) {
	rp, rec := s.rp, &s.rec
	front, tset, dx, dw, dg := &rp.front, &rp.tset, &rp.dx, &rp.dw, &rp.dg
	dA, da, near, known := &rp.dA, &rp.da, &rp.near, &rp.known
	grayAt, xNew := rec.grayAt, rp.xNew
	powL, powM := s.powTabL, rp.powM(t)
	t32, at := int32(t), int32(2*t)

	// Activity (phaseA3Active): δ̃(v) ≥ 1 and δ̃(v) ≥ γ⁽²⁾^{ℓ/(ℓ+1)}·(1−ε).
	s.frontier(tset, dg, nil, dw)
	dA.reset()
	for _, v := range front.list {
		act := false
		if d := s.whiteIn(v, t32); d >= 1 {
			act = float64(d) >= powL[s.gammaNow(v, t)]*(1-core.ThrSlack)
		}
		if _, was := rec.find(v, at); act != was {
			dA.add(v)
		}
	}

	// a(v) (phaseA3Count), counted once per vertex on demand into s.acnt
	// (known marks the counted entries). A touched vertex's old count
	// cannot be rebuilt (its old neighborhood is gone), so it differs while
	// it is white in either run.
	known.reset()
	s.frontier(tset, dw, nil, dA)
	da.reset()
	for _, v := range front.list {
		var differs bool
		if tset.has(v) {
			grayOld := grayAt[v] < t32
			differs = !grayOld || grayOld == dw.has(v)
		} else {
			aNew, aOld := s.aBoth(v, t32)
			differs = aNew != aOld
		}
		if differs {
			da.add(v)
		}
	}

	// x raises (phaseA3Update). a⁽¹⁾(v) is the old run's unless v is
	// touched or in N[Δa].
	near.reset()
	for _, v := range da.list {
		s.addNbhd(near, v)
	}
	s.frontier(tset, dx, dA, nil)
	for _, v := range near.list {
		front.add(v)
	}
	for _, v := range front.list {
		xo := s.recX(v, at) // the old run's x(v) before this iteration
		xn := xo
		if dx.has(v) {
			xn = xNew[v]
		}
		ao, wasAct := rec.find(v, at)
		if wasAct {
			xo = raise(xo, powM, ao) // and after it
		}
		act := wasAct != dA.has(v)
		an := ao
		if act && (!wasAct || tset.has(v) || near.has(v)) {
			an = s.aOnce(v, t32)
			for _, u := range s.g.Neighbors(int(v)) {
				an = max(an, s.aOnce(u, t32))
			}
		}
		if act {
			xn = raise(xn, powM, an)
		}
		if act != wasAct || an != ao {
			if !act {
				an = -1
			}
			rp.diffs = append(rp.diffs, vdiff{v, at, an})
		}
		xNew[v] = xn
		dx.put(v, xn != xo)
	}
	dx.refilter(front.list)

	// Coverage (phaseCovRecheck): white v turns gray once the x-sum over
	// N[v], self first, then neighbors in CSR order, reaches 1−ε.
	s.frontier(tset, dw, nil, dx)
	after := at + 1
	for _, v := range front.list {
		g := grayAt[v]
		oldBefore, oldAfter := g < t32, g <= t32
		newBefore := oldBefore != dw.has(v)
		newAfter := newBefore
		if !newBefore {
			sum := s.xNow(v, after)
			for _, u := range s.g.Neighbors(int(v)) {
				sum += s.xNow(u, after)
			}
			newAfter = sum >= 1-core.CovTol
			if newAfter != (g == t32) {
				ng := t32
				if !newAfter {
					ng = never
				}
				rp.grays = append(rp.grays, vval{v, ng})
			}
		}
		rp.nd += grayLead(newAfter, oldAfter) - grayLead(newBefore, oldBefore)
		dw.put(v, newAfter != oldAfter)
	}
	dw.refilter(front.list)
	front.reset()
	s.whiteCount = int(rec.white[t]) - rp.nd
	rec.white[t] = int32(s.whiteCount)
}

// frontier empties rp.front and fills it with the members of a, b and c
// (each may be nil) and the closed neighborhoods of nb's members.
func (s *Solver) frontier(a, b, c, nb *vset) {
	f := &s.rp.front
	f.reset()
	for _, set := range [3]*vset{a, b, c} {
		if set == nil {
			continue
		}
		for _, v := range set.list {
			if set.has(v) {
				f.add(v)
			}
		}
	}
	if nb != nil {
		for _, v := range nb.list {
			if nb.has(v) {
				s.addNbhd(f, v)
			}
		}
	}
}

// grayLead is a vertex's share of nd: +1 when only the new run has it
// gray, −1 when only the old one does.
func grayLead(grayNew, grayOld bool) int {
	switch {
	case grayNew == grayOld:
		return 0
	case grayNew:
		return 1
	}
	return -1
}

// replayBoundary recomputes γ⁽²⁾ at the outer boundary after inner
// iteration t (phaseGamma1 and phaseGamma2) where it can differ from the
// old run's — support vertices on the 2-ball of D = T ∪ N[DW], the
// vertices whose δ̃ can differ — and resets DG to the vertices whose value
// changed; everywhere else the recorded value stands. δ̃ and γ⁽¹⁾ are
// computed once per vertex on demand, into s.dtil and s.gamma1; D lives
// in near, which is free between iterations.
func (s *Solver) replayBoundary(t int) {
	rp, rec := s.rp, &s.rec
	d, ring, known, dg := &rp.near, &rp.ring, &rp.known, &rp.dg
	d.reset()
	for _, v := range rp.tset.list {
		d.add(v)
	}
	for _, v := range rp.dw.list {
		if rp.dw.has(v) {
			s.addNbhd(d, v)
		}
	}
	s.frontier(nil, nil, nil, d)
	for _, v := range rp.front.list {
		ring.add(v)
	}
	s.frontier(nil, nil, nil, ring) // the ball
	ring.reset()                    // from here on: γ⁽¹⁾ computed
	known.reset()                   // from here on: δ̃ computed
	dg.reset()
	t32, at := int32(t), int32(2*t+1)
	for _, v := range rp.front.list {
		prev, had := rec.find(v, at)
		if s.dtilOnce(v, t32, at) < 1 {
			// Not in the new run's support.
			if had {
				rp.diffs = append(rp.diffs, vdiff{v, at, -1})
			}
			continue
		}
		g := s.gamma1Once(v, t32, at)
		for _, u := range s.g.Neighbors(int(v)) {
			g = max(g, s.gamma1Once(u, t32, at))
		}
		s.gamma2[v] = g
		if !had || g != prev {
			dg.add(v)
			rp.diffs = append(rp.diffs, vdiff{v, at, g})
		}
	}
	rp.front.reset()
	ring.reset()
	known.reset()
	d.reset()
}

// rewrite turns the record into the new run's and s.x into its x,
// patching the flip threshold of each vertex whose x it writes. A new
// run that covered every vertex before the recorded one did ends there,
// and the recorded events after its last step, time last, go, with any x
// raise among them: they belong to vertices of T ∪ N[DW], since a vertex
// the old run still had in its support then had an old neighbor that only
// the old run left white, and only touched vertices changed neighbors.
func (s *Solver) rewrite(last int32) {
	rp, rec := s.rp, &s.rec
	for _, v := range rp.dx.list {
		if rp.dx.has(v) {
			s.x[v] = rp.xNew[v]
			s.patchThr(v)
		}
	}
	if last < int32(2*len(rec.white)-2) {
		s.frontier(&rp.tset, nil, nil, &rp.dw)
		for _, v := range rp.front.list {
			if ev := rec.events(v); len(ev) > 0 && ev[len(ev)-1].at > last {
				rp.diffs = append(rp.diffs, vdiff{v, endOfRun, last})
				s.x[v] = s.xNow(v, last+1) // the old x may hold a dropped raise
				s.patchThr(v)
			}
		}
		rp.front.reset()
	}
	for _, g := range rp.grays {
		rec.grayAt[g.v] = g.val
	}
	slices.SortFunc(rp.diffs, cmpDiff)
	for i := 0; i < len(rp.diffs); {
		v, j := rp.diffs[i].v, i+1
		for j < len(rp.diffs) && rp.diffs[j].v == v {
			j++
		}
		rp.span = mergeSpan(rp.span[:0], rec.events(v), rp.diffs[i:j])
		rec.place(v, rp.span)
		i = j
	}
	rec.maxDeg = s.maxDeg
}

func cmpDiff(a, b vdiff) int {
	if a.v != b.v {
		return cmp.Compare(a.v, b.v)
	}
	return cmp.Compare(a.at, b.at)
}

// mergeSpan appends to dst the span old with the diffs d (ascending by
// time) applied.
func mergeSpan(dst, old []event, d []vdiff) []event {
	limit := int32(endOfRun)
	if e := d[len(d)-1]; e.at == endOfRun {
		limit, d = e.val, d[:len(d)-1]
	}
	i := 0
	for _, e := range d {
		for ; i < len(old) && old[i].at < e.at; i++ {
			dst = append(dst, old[i])
		}
		if i < len(old) && old[i].at == e.at {
			i++
		}
		if e.val >= 0 {
			dst = append(dst, event{e.at, e.val})
		}
	}
	for ; i < len(old) && old[i].at <= limit; i++ {
		dst = append(dst, old[i])
	}
	return dst
}

// raise returns x after an active vertex with a⁽¹⁾ = a1 updates it with
// the x table powM (phaseA3Update's rule).
func raise(x float64, powM []float64, a1 int32) float64 {
	if a1 >= 1 && powM[a1] > x {
		return powM[a1]
	}
	return x
}

// recX returns the old run's x(v) before time at, replayed from v's
// recorded activity.
func (s *Solver) recX(v, at int32) float64 {
	x := 0.0
	for _, e := range s.rec.events(v) {
		if e.at >= at {
			break
		}
		if e.at&1 == 0 {
			x = raise(x, s.rp.powM(int(e.at>>1)), e.val)
		}
	}
	return x
}

// xNow returns the new run's x(v) before time at, for an at at which DX
// and xNew are current.
func (s *Solver) xNow(v, at int32) float64 {
	if s.rp.dx.has(v) {
		return s.rp.xNew[v]
	}
	return s.recX(v, at)
}

// gammaNow returns the new run's γ⁽²⁾(v) in inner iteration t, for a v in
// its support.
func (s *Solver) gammaNow(v int32, t int) int32 {
	if s.rp.dg.has(v) {
		return s.gamma2[v]
	}
	k := s.rp.k
	if t < k {
		return s.d2[v] + 1
	}
	g, _ := s.rec.find(v, int32(2*(t-t%k)-1))
	return g
}

// whiteIn counts the new run's white vertices of N[v] before inner
// iteration t: δ̃(v).
func (s *Solver) whiteIn(v, t int32) int32 {
	grayAt, dw := s.rec.grayAt, s.rp.dw.words
	c := int32(0)
	if (grayAt[v] < t) == (dw[v>>6]&bit(v) != 0) {
		c++
	}
	for _, u := range s.g.Neighbors(int(v)) {
		if (grayAt[u] < t) == (dw[u>>6]&bit(u) != 0) {
			c++
		}
	}
	return c
}

// dtilOnce returns the new run's δ̃(v) at the outer boundary after inner
// iteration t from s.dtil, computing it first unless known. Outside
// D = T ∪ N[DW] (in near) δ̃(v) is the old run's, which is 0 when v has no
// event at the boundary (at): it had left the support.
func (s *Solver) dtilOnce(v, t, at int32) int32 {
	if known := &s.rp.known; !known.has(v) {
		c := int32(0)
		if _, had := s.rec.find(v, at); had || s.rp.near.has(v) {
			c = s.whiteIn(v, t+1)
		}
		s.dtil[v] = c
		known.add(v)
	}
	return s.dtil[v]
}

// gamma1Once returns γ⁽¹⁾(u) = max δ̃ over N[u] from s.gamma1, computing
// it first unless done (in ring).
func (s *Solver) gamma1Once(u, t, at int32) int32 {
	if done := &s.rp.ring; !done.has(u) {
		m := s.dtilOnce(u, t, at)
		for _, w := range s.g.Neighbors(int(u)) {
			m = max(m, s.dtilOnce(w, t, at))
		}
		s.gamma1[u] = m
		done.add(u)
	}
	return s.gamma1[u]
}

// aOnce returns the new run's a(v) in inner iteration t from s.acnt,
// counting it first unless known: the active vertices of N[v] for white
// v, 0 for gray v.
func (s *Solver) aOnce(v, t int32) int32 {
	if !s.rp.known.has(v) {
		s.aBoth(v, t)
	}
	return s.acnt[v]
}

// aBoth counts a(v) in inner iteration t for both runs over v's current
// neighborhood, in one pass, and stores the new run's into s.acnt.
func (s *Solver) aBoth(v, t int32) (aNew, aOld int32) {
	rp := s.rp
	grayOld := s.rec.grayAt[v] < t
	grayNew := grayOld != rp.dw.has(v)
	if !grayOld || !grayNew {
		at := 2 * t
		_, act := s.rec.find(v, at)
		if act {
			aOld++
		}
		if act != rp.dA.has(v) {
			aNew++
		}
		for _, u := range s.g.Neighbors(int(v)) {
			_, act := s.rec.find(u, at)
			if act {
				aOld++
			}
			if act != rp.dA.has(u) {
				aNew++
			}
		}
		if grayOld {
			aOld = 0
		}
		if grayNew {
			aNew = 0
		}
	}
	s.acnt[v] = aNew
	rp.known.add(v)
	return aNew, aOld
}
