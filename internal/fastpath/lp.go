package fastpath

import (
	"math"
	"math/bits"

	"kwmds/internal/core"
	"kwmds/internal/graph"
	"kwmds/internal/lp"
)

// Fractional runs only the LP stage and returns the x-vector. The slice is
// a read-only view of the solver's storage (see Result).
func (s *Solver) Fractional(g *graph.Graph, opt Options) ([]float64, error) {
	if err := core.ValidateK(opt.K); err != nil {
		return nil, err
	}
	if err := s.prepare(g, opt); err != nil {
		return nil, err
	}
	s.cancel = opt.Cancel
	defer func() { s.cancel = nil }()
	s.lp(opt)
	if s.canceled() {
		return nil, ErrCanceled
	}
	return s.x[:s.n], nil
}

// Solve runs the full pipeline: LP stage then randomized rounding. All
// result slices alias the solver's storage (see Result).
func (s *Solver) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := core.ValidateK(opt.K); err != nil {
		return Result{}, err
	}
	if err := s.prepare(g, opt); err != nil {
		return Result{}, err
	}
	s.cancel = opt.Cancel
	defer func() { s.cancel = nil }()
	s.lp(opt)
	if s.canceled() {
		return Result{}, ErrCanceled
	}
	res := s.roundPhases(s.x[:s.n], opt)
	res.X, res.Objective = s.x[:s.n], s.lpObj
	return res, nil
}

// lp brings s.x to the LP stage's solution for opt over the prepared graph.
// The stage is a deterministic function of the graph, the algorithm, k and
// (weighted) the costs; only rounding reads the seed. So when the memo
// holds a completed run of the same configuration — s.x itself is the
// memo — the stage is skipped outright: the serving pattern, where
// requests against one topology differ in their seed. When the memo holds
// the same Algorithm 3 configuration over the graph this one was derived
// from, the stage replays that run's trajectory over the changed frontier
// (replay.go). Otherwise the LP state is reset and the stage runs. The
// memo is marked valid only when the run finished uncanceled, since a
// canceled run leaves x (and a replay's record) partial; a valid memo's
// objective is summed then, once, as lp.Objective sums it.
func (s *Solver) lp(opt Options) {
	same := s.lpValid && s.lpAlg == opt.Algorithm && s.lpK == opt.K &&
		(opt.Algorithm != AlgWeighted || s.sameCosts(opt.Costs))
	s.lastReplayed = false
	if same && !s.lpParent {
		return
	}
	replay := same && opt.Algorithm == Alg3
	s.lpValid, s.lpParent = false, false
	s.bindCosts(opt)
	if replay {
		s.replay(opt.K)
	} else {
		s.resetLPState()
		s.lpStage(opt)
	}
	if !s.canceled() {
		s.lpAlg, s.lpK, s.lpValid = opt.Algorithm, opt.K, true
		s.lpObj = lp.Objective(s.x[:s.n])
	}
}

// bindCosts installs the LP stage's per-vertex costs. AlgWeighted reads the
// solver's own copy; the memo compares later requests against it by
// content, so a caller rewriting its cost slice in place cannot pass for
// the memoized configuration.
func (s *Solver) bindCosts(opt Options) {
	if opt.Algorithm != AlgWeighted {
		s.curCosts, s.curCmax = nil, 0
		return
	}
	s.costs = growF64(s.costs, s.n)
	copy(s.costs, opt.Costs)
	s.curCmax, _ = core.ValidateCosts(s.n, opt.Costs) // validated by the entry point
	s.curCosts = s.costs
}

// sameCosts reports whether costs equal the memoized weighted run's, bit
// for bit.
func (s *Solver) sameCosts(costs []float64) bool {
	for v, c := range s.costs[:s.n] {
		if math.Float64bits(c) != math.Float64bits(costs[v]) {
			return false
		}
	}
	return true
}

// resetLPState returns the solver to the start-of-LP state over the current
// graph: scratch bitsets cleared, support full, x/δ̃/a-counts
// reinitialized, and the flip thresholds, which describe the old x,
// dropped. d2done survives by design: δ⁽¹⁾/δ⁽²⁾ are static graph
// properties.
func (s *Solver) resetLPState() {
	s.bindCSR()
	s.thrOK = false
	s.gray.Reset(s.n)
	s.support.Reset(s.n)
	s.active.Reset(s.n)
	s.dirty.Reset(s.n)
	s.flipped.Reset(s.n)
	s.support.SetAll()
	s.whiteCount = s.n
	for v := 0; v < s.n; v++ {
		s.x[v] = 0
		s.dtil[v] = int32(s.off[v+1]-s.off[v]) + 1
		s.acnt[v] = 0
	}
}

// canceled polls Options.Cancel; a nil channel never fires. The LP drivers
// call it at iteration boundaries and bail out, leaving x partial; the
// entry points translate the state into ErrCanceled so no partial solution
// ever escapes.
func (s *Solver) canceled() bool {
	select {
	case <-s.cancel:
		return true
	default:
		return false
	}
}

func (s *Solver) lpStage(opt Options) {
	switch opt.Algorithm {
	case Alg2:
		s.pw = fillPow(s.pw, float64(s.maxDeg+1), opt.K)
		s.lpThreshold(opt.K, s.pw, s.pw)
	case AlgWeighted:
		s.pw = fillPow(s.pw, float64(s.maxDeg+1), opt.K)
		s.wthr = fillPow(s.wthr, s.curCmax*float64(s.maxDeg+1), opt.K)
		s.lpThreshold(opt.K, s.wthr, s.pw)
	default:
		s.rec.begin(s.n, opt.K, s.maxDeg)
		s.lpAlg3(opt.K)
	}
}

// fillPow sets buf[i] = base^{i/k} for i = 0..k, growing buf only when it
// is too short. These are the references' own math.Pow calls (core's
// Algorithm 2 and weighted thresholds), so the tables are bit-identical to
// theirs.
func fillPow(buf []float64, base float64, k int) []float64 {
	buf = growF64(buf, k+1)
	for i := range buf {
		buf[i] = math.Pow(base, float64(i)/float64(k))
	}
	return buf
}

// lpThreshold is the shared driver of Algorithm 2 and the weighted variant:
// per inner iteration, an activity test against thrTab[l] fused with the
// x-raise to 1/pw[m], then the covering recheck. When the white set is
// empty no vertex can pass the activity test (δ̃ = 0 < (…)⁰·(1−ε)), so the
// remaining iterations are skipped — x is already final.
func (s *Solver) lpThreshold(k int, thrTab, pw []float64) {
	for l := k - 1; l >= 0; l-- {
		if s.whiteCount == 0 {
			return
		}
		s.curThr = thrTab[l] * (1 - core.ThrSlack)
		for m := k - 1; m >= 0; m-- {
			if s.whiteCount == 0 || s.canceled() {
				return
			}
			s.curXval = 1 / pw[m]
			s.changed, s.newGray = s.changed[:0], s.newGray[:0]
			s.phaseLPActivity()
			s.recheckCoverage()
		}
	}
}

// recheckCoverage runs the covering re-evaluation for the iteration's
// changed set. When few vertices changed, their neighborhoods are marked
// (markNbhd) and only those are re-summed; when most of the graph changed,
// marking would cost more than it saves, so every white vertex is
// re-summed instead. The two paths give identical results — re-summing an
// unchanged white vertex reproduces the very comparison that left it white
// — so the cutover is pure heuristics, not semantics.
func (s *Solver) recheckCoverage() {
	changed := len(s.changed)
	if changed == 0 {
		return
	}
	if changed*4 >= s.whiteCount {
		s.phaseCovRecheckAll()
	} else {
		s.phaseMarkDirty()
		s.phaseCovRecheck()
	}
	s.applyNewGray()
}

// lpAlg3 drives Algorithm 3. The threshold powers γ⁽²⁾^{ℓ/(ℓ+1)} and the
// x-raise values a⁽¹⁾^{-m/(m+1)} both exponentiate integers bounded by
// ∆+1, so each iteration fills a (∆+2)-entry table with the identical
// math.Pow calls and the vertex loops only index it. Every iteration and
// outer boundary is logged into s.rec, which the first replay of a later
// epoch turns into the per-vertex trajectory it replays.
func (s *Solver) lpAlg3(k int) {
	s.ensureD2()
	for v := 0; v < s.n; v++ {
		s.gamma2[v] = s.d2[v] + 1
	}
	s.powTabL = growF64(s.powTabL, s.maxDeg+2)
	s.powTabM = growF64(s.powTabM, s.maxDeg+2)
	t := 0
	for l := k - 1; l >= 0; l-- {
		if s.whiteCount == 0 {
			return
		}
		fillPowL(s.powTabL, l)
		for m := k - 1; m >= 0; m-- {
			if s.whiteCount == 0 || s.canceled() {
				return
			}
			s.sweep(s.fnA3Active)
			s.sweep(s.fnA3Count)
			fillPowM(s.powTabM, m)
			s.changed, s.newGray = s.changed[:0], s.newGray[:0]
			s.phaseA3Update()
			s.rec.logIter(t, s.active, s.gamma1)
			s.recheckCoverage()
			for _, v := range s.newGray {
				s.rec.grayAt[v] = int32(t)
			}
			s.rec.white[t] = int32(s.whiteCount)
			t++
			// The reference recomputes δ̃ here (its lines 20-21); the
			// incremental decrements in applyNewGray leave dtil holding
			// exactly those values.
		}
		if l > 0 && s.whiteCount > 0 {
			// Lines 24-27: recompute γ⁽²⁾ from the new δ̃. Only vertices
			// that can still pass a future activity test (the support set
			// and its neighborhood) need fresh values; when the support
			// still spans most of the graph, computing γ⁽¹⁾ everywhere
			// beats marking the neighborhood set first.
			if 2*s.support.Count() >= s.n {
				s.sweep(s.fnGamma1All)
			} else {
				s.phaseMarkSupportNbhd()
				s.sweep(s.fnGamma1)
				s.dirty.ClearWords(0, s.nw)
			}
			s.sweep(s.fnGamma2)
			s.rec.logGamma(t-1, s.support, s.gamma2)
		}
	}
}

// fillPowL and fillPowM fill the Algorithm 3 tables for outer index ℓ and
// inner index m: tab[i] = i^{ℓ/(ℓ+1)} and tab[i] = i^{-m/(m+1)}.
func fillPowL(tab []float64, l int) {
	expL := float64(l) / float64(l+1)
	for i := range tab {
		tab[i] = math.Pow(float64(i), expL)
	}
}

func fillPowM(tab []float64, m int) {
	expM := -float64(m) / float64(m+1)
	for i := range tab {
		tab[i] = math.Pow(float64(i), expM)
	}
}

// --- phases -----------------------------------------------------------

// phaseLPActivity fuses the activity test of Algorithm 2 / the weighted
// variant with the x-raise. Only support vertices (δ̃ ≥ 1) can pass: the
// thresholds are ≥ (…)⁰·(1−ε) > 0.
func (s *Solver) phaseLPActivity() {
	words := s.support.Words()
	x, dtil := s.x, s.dtil
	costs, cmax := s.curCosts, s.curCmax
	thr, xval := s.curThr, s.curXval
	for wi := 0; wi < s.nw; wi++ {
		wd := words[wi]
		for wd != 0 {
			v := wi<<6 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			var act bool
			if costs == nil {
				act = float64(dtil[v]) >= thr
			} else {
				act = cmax/costs[v]*float64(dtil[v]) >= thr
			}
			if act && xval > x[v] {
				x[v] = xval
				s.changed = append(s.changed, int32(v))
			}
		}
	}
}

// phaseMarkDirty marks N[u] of every changed vertex for covering recheck.
func (s *Solver) phaseMarkDirty() {
	words := s.dirty.Words()
	for _, u := range s.changed {
		s.markNbhd(words, u)
	}
}

// phaseCovRecheck re-evaluates the covering condition for dirty white
// vertices. The sum runs self-first then neighbors in sorted CSR order —
// the exact operation order of core.coverage — so the comparison against
// 1−covTol is bit-identical to the references'. Processed words are
// cleared in place.
func (s *Solver) phaseCovRecheck() {
	dw, gw := s.dirty.Words(), s.gray.Words()
	x, off, adj := s.x, s.off, s.adj
	for wi := 0; wi < s.nw; wi++ {
		wd := dw[wi] &^ gw[wi] // dirty ∧ white
		dw[wi] = 0
		for wd != 0 {
			v := wi<<6 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			sum := x[v]
			for _, u := range adj[off[v]:off[v+1]] {
				sum += x[u]
			}
			if sum >= 1-core.CovTol {
				s.newGray = append(s.newGray, int32(v))
			}
		}
	}
}

// phaseCovRecheckAll is the dense-iteration variant: re-evaluate every
// white vertex (see recheckCoverage). It leaves the dirty set untouched —
// nothing was marked.
func (s *Solver) phaseCovRecheckAll() {
	sw, gw := s.support.Words(), s.gray.Words()
	x, off, adj := s.x, s.off, s.adj
	for wi := 0; wi < s.nw; wi++ {
		wd := sw[wi] &^ gw[wi] // the white set (white ⊆ support)
		for wd != 0 {
			v := wi<<6 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			sum := x[v]
			for _, u := range adj[off[v]:off[v+1]] {
				sum += x[u]
			}
			if sum >= 1-core.CovTol {
				s.newGray = append(s.newGray, int32(v))
			}
		}
	}
}

// phaseA3Active rebuilds the words [w0, w1) of the activity bitset:
// δ̃(v) ≥ 1 (implied by support membership) and δ̃(v) ≥
// γ⁽²⁾^{ℓ/(ℓ+1)}·(1−ε).
func (s *Solver) phaseA3Active(w0, w1 int) int {
	sw, aw := s.support.Words(), s.active.Words()
	dtil, gamma2, powTabL := s.dtil, s.gamma2, s.powTabL
	for wi := w0; wi < w1; wi++ {
		src := sw[wi]
		var dst uint64
		for src != 0 {
			b := bits.TrailingZeros64(src)
			src &= src - 1
			v := wi<<6 + b
			if float64(dtil[v]) >= powTabL[gamma2[v]]*(1-core.ThrSlack) {
				dst |= 1 << b
			}
		}
		aw[wi] = dst
	}
	return 0
}

// phaseA3Count computes a(v) — the number of active vertices in N[v] — for
// the white vertices of words [w0, w1). Gray vertices keep a(v) = 0
// (zeroed at init and on the white→gray transition), as the paper defines.
func (s *Solver) phaseA3Count(w0, w1 int) int {
	sw, gw, aw := s.support.Words(), s.gray.Words(), s.active.Words()
	off, adj, acnt := s.off, s.adj, s.acnt
	for wi := w0; wi < w1; wi++ {
		wd := sw[wi] &^ gw[wi] // white ⊆ support
		for wd != 0 {
			b := bits.TrailingZeros64(wd)
			wd &= wd - 1
			v := wi<<6 + b
			c := int32(0)
			if aw[wi]&(1<<b) != 0 {
				c = 1
			}
			for _, u := range adj[off[v]:off[v+1]] {
				if aw[u>>6]&(1<<(uint32(u)&63)) != 0 {
					c++
				}
			}
			acnt[v] = c
		}
	}
	return 0
}

// phaseA3Update raises x of active vertices to a⁽¹⁾^{-m/(m+1)}, where
// a⁽¹⁾(v) = max a over N[v]. It leaves each active vertex's a⁽¹⁾ in
// gamma1, which is free between outer boundaries, for the record.
func (s *Solver) phaseA3Update() {
	aw := s.active.Words()
	x, off, adj, acnt, a1 := s.x, s.off, s.adj, s.acnt, s.gamma1
	powTabM := s.powTabM
	for wi := 0; wi < s.nw; wi++ {
		wd := aw[wi]
		for wd != 0 {
			v := wi<<6 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			m1 := acnt[v]
			for _, u := range adj[off[v]:off[v+1]] {
				if acnt[u] > m1 {
					m1 = acnt[u]
				}
			}
			a1[v] = m1
			if m1 < 1 {
				continue
			}
			xval := powTabM[m1]
			if xval > x[v] {
				x[v] = xval
				s.changed = append(s.changed, int32(v))
			}
		}
	}
}

// phaseMarkSupportNbhd marks support ∪ N(support) into dirty, the set that
// needs fresh γ⁽¹⁾ values for the outer-boundary γ⁽²⁾ recomputation.
func (s *Solver) phaseMarkSupportNbhd() {
	sw, dw := s.support.Words(), s.dirty.Words()
	for wi := 0; wi < s.nw; wi++ {
		wd := sw[wi]
		for wd != 0 {
			v := wi<<6 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			s.markNbhd(dw, int32(v))
		}
	}
}

// phaseGamma1 computes γ⁽¹⁾(v) = max δ̃ over N[v] for the marked vertices
// of words [w0, w1).
func (s *Solver) phaseGamma1(w0, w1 int) int {
	dw := s.dirty.Words()
	off, adj, dtil, gamma1 := s.off, s.adj, s.dtil, s.gamma1
	for wi := w0; wi < w1; wi++ {
		wd := dw[wi]
		for wd != 0 {
			v := wi<<6 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			m1 := dtil[v]
			for _, u := range adj[off[v]:off[v+1]] {
				if dtil[u] > m1 {
					m1 = dtil[u]
				}
			}
			gamma1[v] = m1
		}
	}
	return 0
}

// phaseGamma1All is the dense variant of phaseGamma1: when the support
// still spans most of the graph, sweep every vertex instead of marking the
// support neighborhood first. Extra γ⁽¹⁾ values are never read — γ⁽²⁾ is
// only evaluated over the support — so both variants yield identical runs.
func (s *Solver) phaseGamma1All(w0, w1 int) int {
	off, adj, dtil, gamma1 := s.off, s.adj, s.dtil, s.gamma1
	for v, v1 := w0<<6, min(w1<<6, s.n); v < v1; v++ {
		m1 := dtil[v]
		for _, u := range adj[off[v]:off[v+1]] {
			if dtil[u] > m1 {
				m1 = dtil[u]
			}
		}
		gamma1[v] = m1
	}
	return 0
}

// phaseGamma2 computes γ⁽²⁾(v) = max γ⁽¹⁾ over N[v] for the support
// vertices of words [w0, w1) — the only ones whose thresholds are ever
// evaluated again.
func (s *Solver) phaseGamma2(w0, w1 int) int {
	sw := s.support.Words()
	off, adj, gamma1, gamma2 := s.off, s.adj, s.gamma1, s.gamma2
	for wi := w0; wi < w1; wi++ {
		wd := sw[wi]
		for wd != 0 {
			v := wi<<6 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			m2 := gamma1[v]
			for _, u := range adj[off[v]:off[v+1]] {
				if gamma1[u] > m2 {
					m2 = gamma1[u]
				}
			}
			gamma2[v] = m2
		}
	}
	return 0
}

// phaseD1 computes the static δ⁽¹⁾ (max degree over N[v]) for the
// vertices of words [w0, w1).
func (s *Solver) phaseD1(w0, w1 int) int {
	off, adj, d1 := s.off, s.adj, s.d1
	for v, v1 := w0<<6, min(w1<<6, s.n); v < v1; v++ {
		m1 := off[v+1] - off[v]
		for _, u := range adj[off[v]:off[v+1]] {
			if d := off[u+1] - off[u]; d > m1 {
				m1 = d
			}
		}
		d1[v] = m1
	}
	return 0
}

// phaseD2 computes the static δ⁽²⁾ (max δ⁽¹⁾ over N[v]) for the vertices
// of words [w0, w1), once every δ⁽¹⁾ is done.
func (s *Solver) phaseD2(w0, w1 int) int {
	off, adj, d1, d2 := s.off, s.adj, s.d1, s.d2
	for v, v1 := w0<<6, min(w1<<6, s.n); v < v1; v++ {
		m2 := d1[v]
		for _, u := range adj[off[v]:off[v+1]] {
			if d1[u] > m2 {
				m2 = d1[u]
			}
		}
		d2[v] = m2
	}
	return 0
}

func (s *Solver) ensureD2() {
	if s.d2done {
		return
	}
	s.bindCSR()
	s.sweep(s.fnD1)
	s.sweep(s.fnD2)
	s.d2done = true
}
