// Package core implements the paper's primary contribution (Section 5): the
// distributed approximation of the fractional dominating-set LP.
//
//   - Algorithm 2 (FractionalKnownDelta / ReferenceKnownDelta): every node
//     knows the global maximum degree ∆; k(∆+1)^{2/k}-approximation of
//     LP_MDS in exactly 2k² rounds (Theorem 4).
//   - Algorithm 3 (Fractional / Reference): no global knowledge; the
//     thresholds use the 2-hop maximum dynamic degree γ⁽²⁾ instead;
//     k((∆+1)^{1/k}+(∆+1)^{2/k})-approximation in 4k²+2k+2 rounds
//     (Theorem 5).
//   - The weighted variant from the remark after Theorem 4
//     (FractionalWeighted / ReferenceWeighted).
//
// Every algorithm exists in two executions that produce bit-identical
// x-vectors: a distributed one running on the internal/sim engine (which
// measures rounds, messages and bits) and a sequential reference that
// additionally maintains the z-value accounting from the proofs of
// Lemmas 4 and 7, making the paper's invariants empirically checkable.
package core

import (
	"fmt"
	"math"

	"kwmds/internal/graph"
)

const (
	// covTol is the slack used when testing the covering condition
	// Σ_{j∈N[i]} x_j ≥ 1 so that sums of floating-point powers compare
	// reliably across platforms.
	covTol = 1e-9
	// thrSlack is the relative slack applied to activity thresholds such
	// as (∆+1)^{ℓ/k}. When the power is an exact integer, math.Pow may
	// round it a hair above that integer, and a dynamic degree equal to
	// the exact threshold would fail the test; the slack makes every
	// comparison come out as in exact arithmetic.
	thrSlack = 1e-12
	// maxK caps the iteration parameter; beyond log2(n) the algorithm's
	// thresholds collapse to 1 and extra iterations are pure overhead.
	maxK = 64
)

// MaxK is the largest accepted trade-off parameter k. The facade exposes it
// so option validation can reject out-of-range values before dispatch.
const MaxK = maxK

// CovTol and ThrSlack re-export the comparison tolerances for alternative
// execution backends (internal/fastpath): every backend must test the
// covering condition and the activity thresholds with the exact same
// constants or outputs stop being bit-identical.
const (
	CovTol   = covTol
	ThrSlack = thrSlack
)

// Result is the outcome of one fractional-LP approximation run.
type Result struct {
	// X is the computed fractional dominating set (indexed by vertex).
	X []float64
	// Rounds is the number of synchronous communication rounds used.
	Rounds int
	// Messages is the total number of point-to-point deliveries.
	Messages int64
	// Bits is the total payload volume in (compactly encoded) bits.
	Bits int64
	// MaxMsgsPerNode is the largest number of messages sent by one node.
	MaxMsgsPerNode int64
}

// InnerSnapshot records the state at the start of one inner-loop iteration
// of the sequential references; the F1 experiment uses it to regenerate the
// cascade of the paper's Figure 1.
type InnerSnapshot struct {
	L, M      int     // loop indices (counting down, as in the paper)
	MaxDtil   int     // max dynamic degree δ̃ over all nodes
	NumWhite  int     // uncovered nodes
	NumActive int     // nodes passing the activity test this iteration
	MaxA      int     // max a(v): active nodes in a white node's N[v]
	SumX      float64 // current LP objective Σx
	// Gray is a copy of the per-node coverage state at the head of the
	// iteration (true = covered), used by the Figure 1 reproduction to
	// track which tiers of nodes are covered when.
	Gray []bool
}

// OuterReport aggregates the z-value accounting of one outer-loop iteration
// of the sequential references, mirroring the proofs of Lemmas 4 and 7.
type OuterReport struct {
	L int
	// XIncrease is the total growth of Σx during the iteration.
	XIncrease float64
	// ZSum is the total z-weight distributed (equals XIncrease minus
	// LostWeight).
	ZSum float64
	// ZMax is the largest individual z-value at the end of the iteration.
	ZMax float64
	// ZNeighborhoodMax is the largest Σ_{j∈N[i]} z_j at the end of the
	// iteration — the quantity the proofs of Theorems 4 and 5 bound by
	// (∆+1)^{2/k} and (∆+1)^{1/k}+(∆+1)^{2/k} respectively.
	ZNeighborhoodMax float64
	// LostWeight is x-increase by nodes whose closed neighborhood had no
	// white node at increase time. With the fresh-δ̃ round schedule used by
	// all implementations here (see the note in ReferenceKnownDelta) it is
	// always zero; it is kept as a cross-check.
	LostWeight float64
}

// RefResult is the outcome of a sequential reference run: the same X as the
// distributed execution plus, when Instrument was requested, the analysis
// instrumentation.
type RefResult struct {
	X     []float64
	Trace []InnerSnapshot // one per inner-loop iteration (Instrument only)
	Outer []OuterReport   // one per outer-loop iteration (Instrument only)
}

// RefOption configures a sequential reference run.
type RefOption func(*refConfig)

type refConfig struct{ instrument bool }

// Instrument turns on the proof bookkeeping of the sequential references:
// the per-inner-iteration InnerSnapshot trace (which clones the Gray state)
// and the per-outer-iteration z-account OuterReport (which performs an
// O(n·∆) neighborhood scan). Both exist to check the paper's invariants and
// regenerate Figure 1; they are pure overhead for production solves, so the
// references skip them unless this option is passed.
func Instrument() RefOption {
	return func(c *refConfig) { c.instrument = true }
}

func applyRefOptions(opts []RefOption) refConfig {
	var c refConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Objective returns Σx.
func (r *RefResult) Objective() float64 {
	var s float64
	for _, v := range r.X {
		s += v
	}
	return s
}

// validateK rejects out-of-range iteration parameters.
func validateK(k int) error {
	if k < 1 || k > maxK {
		return fmt.Errorf("core: k = %d outside [1, %d]", k, maxK)
	}
	return nil
}

// ValidateK exposes the iteration-parameter check so alternative execution
// backends (internal/fastpath) enforce exactly the rules the references do.
func ValidateK(k int) error { return validateK(k) }

// ValidateCosts exposes the weighted-variant cost check (every c_i finite
// and ≥ 1) and returns c_max; shared with internal/fastpath for identical
// validation and identical c_max derivation.
func ValidateCosts(n int, costs []float64) (float64, error) {
	return validateCosts(n, costs)
}

// KnownDeltaBound returns the Theorem 4 approximation guarantee
// k(∆+1)^{2/k} for a graph with maximum degree delta.
func KnownDeltaBound(k, delta int) float64 {
	return float64(k) * math.Pow(float64(delta+1), 2/float64(k))
}

// UnknownDeltaBound returns the Theorem 5 guarantee
// k((∆+1)^{1/k} + (∆+1)^{2/k}).
func UnknownDeltaBound(k, delta int) float64 {
	d := float64(delta + 1)
	return float64(k) * (math.Pow(d, 1/float64(k)) + math.Pow(d, 2/float64(k)))
}

// WeightedBound returns the guarantee from the remark after Theorem 4:
// k(∆+1)^{1/k}·[c_max(∆+1)]^{1/k}.
func WeightedBound(k, delta int, cmax float64) float64 {
	d := float64(delta + 1)
	return float64(k) * math.Pow(d, 1/float64(k)) * math.Pow(cmax*d, 1/float64(k))
}

// LogDeltaK returns the paper's recommended parameter k = Θ(log ∆) (remark
// after Theorem 6): ⌈log₂(∆+2)⌉, at least 1.
func LogDeltaK(delta int) int {
	k := 1
	for v := delta + 1; v > 1; v >>= 1 {
		k++
	}
	if k > maxK {
		k = maxK
	}
	return k
}

// coverage computes Σ_{j∈N[v]} x_j for every v, summing self first and then
// neighbors in sorted order — the same order the distributed programs use,
// so both executions make bit-identical comparisons.
func coverage(g *graph.Graph, x []float64, out []float64) []float64 {
	n := g.N()
	if out == nil {
		out = make([]float64, n)
	}
	for v := 0; v < n; v++ {
		s := x[v]
		for _, u := range g.Neighbors(v) {
			s += x[u]
		}
		out[v] = s
	}
	return out
}
