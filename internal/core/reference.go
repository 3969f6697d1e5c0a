package core

import (
	"math"

	"kwmds/internal/graph"
)

// This file contains the sequential reference executions of Algorithms 2
// and 3. They follow the paper's pseudocode line by line on plain arrays —
// including the information lag inherent to the message-passing execution
// (a value "received" in iteration t was computed from state at the time it
// was sent) — so their output is bit-identical to the distributed programs
// in alg2.go / alg3.go. When Instrument is requested they additionally
// maintain the z-value bookkeeping that the proofs of Lemmas 4 and 7
// introduce, letting tests check the paper's invariants directly; by
// default that bookkeeping (Gray snapshots every inner iteration, an
// O(n·∆) z-neighborhood scan every outer iteration) is skipped, so the
// reference doubles as an honest single-thread baseline for the fastpath
// solver.

// zAccount tracks the per-outer-iteration dual bookkeeping of the proofs.
type zAccount struct {
	z    []float64
	lost float64
	xInc float64
}

func newZAccount(n int) *zAccount { return &zAccount{z: make([]float64, n)} }

func (za *zAccount) reset() {
	for i := range za.z {
		za.z[i] = 0
	}
	za.lost = 0
	za.xInc = 0
}

// distribute spreads an x-increase dx by vertex v over the currently white
// members of N[v], as the proofs of Lemmas 4 and 7 prescribe.
func (za *zAccount) distribute(g *graph.Graph, gray []bool, v int, dx float64) {
	za.xInc += dx
	white := 0
	if !gray[v] {
		white++
	}
	for _, u := range g.Neighbors(v) {
		if !gray[u] {
			white++
		}
	}
	if white == 0 {
		za.lost += dx
		return
	}
	share := dx / float64(white)
	if !gray[v] {
		za.z[v] += share
	}
	for _, u := range g.Neighbors(v) {
		if !gray[u] {
			za.z[u] += share
		}
	}
}

// report summarizes the iteration's bookkeeping.
func (za *zAccount) report(g *graph.Graph, l int) OuterReport {
	rep := OuterReport{L: l, XIncrease: za.xInc, LostWeight: za.lost}
	for _, zv := range za.z {
		rep.ZSum += zv
		if zv > rep.ZMax {
			rep.ZMax = zv
		}
	}
	for v := 0; v < g.N(); v++ {
		s := za.z[v]
		for _, u := range g.Neighbors(v) {
			s += za.z[u]
		}
		if s > rep.ZNeighborhoodMax {
			rep.ZNeighborhoodMax = s
		}
	}
	return rep
}

// trueDtil returns the current dynamic degree of v: the number of white
// nodes in N[v].
func trueDtil(g *graph.Graph, gray []bool, v int) int {
	d := 0
	if !gray[v] {
		d++
	}
	for _, u := range g.Neighbors(v) {
		if !gray[u] {
			d++
		}
	}
	return d
}

func countWhite(gray []bool) int {
	c := 0
	for _, g := range gray {
		if !g {
			c++
		}
	}
	return c
}

// snapshot records the state at the head of an inner iteration. active must
// already reflect this iteration's activity test.
func snapshot(g *graph.Graph, l, m int, gray, active []bool, x []float64) InnerSnapshot {
	snap := InnerSnapshot{L: l, M: m, NumWhite: countWhite(gray)}
	snap.Gray = make([]bool, len(gray))
	copy(snap.Gray, gray)
	for v := 0; v < g.N(); v++ {
		if active[v] {
			snap.NumActive++
		}
		if d := trueDtil(g, gray, v); d > snap.MaxDtil {
			snap.MaxDtil = d
		}
		snap.SumX += x[v]
	}
	// a(v): active nodes in N[v] for white v (0 for gray, as in the paper).
	for v := 0; v < g.N(); v++ {
		if gray[v] {
			continue
		}
		a := 0
		if active[v] {
			a++
		}
		for _, u := range g.Neighbors(v) {
			if active[u] {
				a++
			}
		}
		if a > snap.MaxA {
			snap.MaxA = a
		}
	}
	return snap
}

// ReferenceKnownDelta runs Algorithm 2 (nodes know ∆) sequentially and
// returns the fractional solution, plus the per-iteration instrumentation
// when Instrument is among the options.
func ReferenceKnownDelta(g *graph.Graph, k int, opts ...RefOption) (*RefResult, error) {
	if err := validateK(k); err != nil {
		return nil, err
	}
	pw := powTable(float64(g.MaxDegree()+1), k)
	return referenceThreshold(g, k, pw, pw, nil, 0, applyRefOptions(opts)), nil
}

// referenceThreshold is the sequential execution of Algorithm 2 and the
// weighted variant (costs nil for Algorithm 2), with the activity
// thresholds thr and the x-raise table pw of fractionalThreshold.
func referenceThreshold(g *graph.Graph, k int, thr, pw, costs []float64, cmax float64, cfg refConfig) *RefResult {
	n := g.N()
	x := make([]float64, n)
	gray := make([]bool, n)
	dtil := make([]int, n)
	active := make([]bool, n)
	cov := make([]float64, n)
	res := &RefResult{X: x}
	var za *zAccount
	if cfg.instrument {
		za = newZAccount(n)
	}

	// Round schedule note: the paper's listing exchanges colors (lines 9-10)
	// *after* the activity test (lines 6-8), which makes the test use a
	// one-exchange-old δ̃; the proofs of Lemmas 3 and 4 require the fresh
	// value (an active node must have ≥ (∆+1)^{ℓ/k} *currently* white
	// neighbors to share its weight increase). We therefore run the color
	// exchange at the head of the iteration — exactly the ordering the
	// journal version's Algorithm 3 uses (its lines 20-21 refresh δ̃ at the
	// iteration end). The round count is unchanged: 2 per inner iteration.
	for l := k - 1; l >= 0; l-- {
		if za != nil {
			za.reset()
		}
		lthr := thr[l] * (1 - thrSlack)
		for m := k - 1; m >= 0; m-- {
			// Lines 9-10 (reordered): exchange colors, recompute δ̃.
			for v := 0; v < n; v++ {
				dtil[v] = trueDtil(g, gray, v)
			}
			// Lines 6-8: activity test on the fresh dynamic degree.
			for v := 0; v < n; v++ {
				active[v] = isActive(dtil[v], lthr, costs, cmax, v)
			}
			if cfg.instrument {
				res.Trace = append(res.Trace, snapshot(g, l, m, gray, active, x))
			}
			xval := 1 / pw[m]
			for v := 0; v < n; v++ {
				if active[v] && xval > x[v] {
					if za != nil {
						za.distribute(g, gray, v, xval-x[v])
					}
					x[v] = xval
				}
			}
			// Lines 11-12: exchange x-values, recolor covered nodes.
			coverage(g, x, cov)
			for v := 0; v < n; v++ {
				if cov[v] >= 1-covTol {
					gray[v] = true
				}
			}
		}
		if za != nil {
			res.Outer = append(res.Outer, za.report(g, l))
		}
	}
	return res
}

// Reference runs Algorithm 3 (∆ unknown) sequentially.
func Reference(g *graph.Graph, k int, opts ...RefOption) (*RefResult, error) {
	if err := validateK(k); err != nil {
		return nil, err
	}
	cfg := applyRefOptions(opts)
	n := g.N()
	x := make([]float64, n)
	gray := make([]bool, n)
	active := make([]bool, n)
	cov := make([]float64, n)
	a := make([]int, n)
	a1 := make([]int, n)

	// Lines 2-3: two rounds compute δ⁽²⁾; γ⁽²⁾ := δ⁽²⁾+1, δ̃ := δ+1.
	gamma2 := make([]int, n)
	for v, d2 := range g.Degree2() {
		gamma2[v] = d2 + 1
	}
	dtil := make([]int, n)
	for v := 0; v < n; v++ {
		dtil[v] = g.Degree(v) + 1
	}

	res := &RefResult{X: x}
	var za *zAccount
	if cfg.instrument {
		za = newZAccount(n)
	}

	for l := k - 1; l >= 0; l-- {
		if za != nil {
			za.reset()
		}
		expL := float64(l) / float64(l+1)
		for m := k - 1; m >= 0; m-- {
			// Lines 7-9: activity test against the local 2-hop threshold.
			// The δ̃ ≥ 1 guard excludes the degenerate γ⁽²⁾ = 0 case, where
			// the threshold 0^{ℓ/(ℓ+1)} is 0 for ℓ ≥ 1 and a node with no
			// white node in N[v] would raise x for nothing. While any node
			// within two hops is white, γ⁽²⁾ ≥ 1 puts the threshold at or
			// above 1−ε, so the guard never changes the outcome.
			for v := 0; v < n; v++ {
				active[v] = dtil[v] >= 1 &&
					float64(dtil[v]) >= math.Pow(float64(gamma2[v]), expL)*(1-thrSlack)
			}
			if cfg.instrument {
				res.Trace = append(res.Trace, snapshot(g, l, m, gray, active, x))
			}
			// Lines 10-12: a(v) = active nodes in N[v], zero for gray nodes.
			for v := 0; v < n; v++ {
				if gray[v] {
					a[v] = 0
					continue
				}
				c := 0
				if active[v] {
					c++
				}
				for _, u := range g.Neighbors(v) {
					if active[u] {
						c++
					}
				}
				a[v] = c
			}
			// Line 13: a⁽¹⁾(v) = max a over N[v].
			for v := 0; v < n; v++ {
				m1 := a[v]
				for _, u := range g.Neighbors(v) {
					if a[u] > m1 {
						m1 = a[u]
					}
				}
				a1[v] = m1
			}
			// Lines 15-17: active nodes raise x to a⁽¹⁾^{-m/(m+1)}.
			expM := -float64(m) / float64(m+1)
			for v := 0; v < n; v++ {
				if !active[v] || a1[v] < 1 {
					continue
				}
				xval := math.Pow(float64(a1[v]), expM)
				if xval > x[v] {
					if za != nil {
						za.distribute(g, gray, v, xval-x[v])
					}
					x[v] = xval
				}
			}
			// Lines 18-19: exchange x, recolor.
			coverage(g, x, cov)
			for v := 0; v < n; v++ {
				if cov[v] >= 1-covTol {
					gray[v] = true
				}
			}
			// Lines 20-21: exchange colors, recompute δ̃ (fresh in Alg 3).
			for v := 0; v < n; v++ {
				dtil[v] = trueDtil(g, gray, v)
			}
		}
		if za != nil {
			res.Outer = append(res.Outer, za.report(g, l))
		}
		// Lines 24-27: two rounds recompute γ⁽²⁾ from the new δ̃.
		gamma1 := make([]int, n)
		for v := 0; v < n; v++ {
			m1 := dtil[v]
			for _, u := range g.Neighbors(v) {
				if dtil[u] > m1 {
					m1 = dtil[u]
				}
			}
			gamma1[v] = m1
		}
		for v := 0; v < n; v++ {
			m2 := gamma1[v]
			for _, u := range g.Neighbors(v) {
				if gamma1[u] > m2 {
					m2 = gamma1[u]
				}
			}
			gamma2[v] = m2
		}
	}
	return res, nil
}

// powTable returns pw[i] = base^{i/k} for i = 0..k: (∆+1)^{i/k} for the
// x-raise, [c_max(∆+1)]^{i/k} for the weighted activity thresholds.
func powTable(base float64, k int) []float64 {
	pw := make([]float64, k+1)
	for i := 0; i <= k; i++ {
		pw[i] = math.Pow(base, float64(i)/float64(k))
	}
	return pw
}
