// Package testsupport holds the solution invariants shared by every
// backend's tests. The pipeline has three executions of the same algorithm
// — the sequential references (internal/core), the message-passing
// simulation (internal/sim via internal/rounding) and the flat CSR solver
// (internal/fastpath) — plus the dynamic-graph engine re-solving mutated
// snapshots (internal/dyngraph). All of them must satisfy one predicate:
// every vertex is dominated, and for weighted runs the reported cost obeys
// the facade's weight domain (finite costs ≥ 1, so Σ costs over the set is
// exact and at least |DS|). Before this package each test suite carried its
// own copy of that predicate; now they assert the identical one.
package testsupport

import (
	"math"
	"testing"

	"kwmds/internal/graph"
)

// covTol mirrors core.CovTol, the covering comparison tolerance of the LP
// stage. Duplicated as a literal rather than imported so testsupport stays
// importable from core's own tests without a cycle; core_test pins the two
// together.
const covTol = 1e-9

// AssertDominatingSet fails t unless inDS is a dominating set of g sized
// exactly like the members it marks. ctx labels the failure.
func AssertDominatingSet(t testing.TB, ctx string, g *graph.Graph, inDS []bool) {
	t.Helper()
	if g.N() != len(inDS) {
		t.Fatalf("%s: |inDS| = %d for %d vertices", ctx, len(inDS), g.N())
	}
	if un := g.Uncovered(inDS); len(un) > 0 {
		t.Fatalf("%s: not a dominating set: %d uncovered vertices (first: %d)", ctx, len(un), un[0])
	}
}

// AssertDominatingSetPacked is AssertDominatingSet of a set packed 64
// vertices a word, vertex v at bit v&63 of word v>>6 (graph.PackSet's
// layout), as the fastpath solver returns it.
func AssertDominatingSetPacked(t testing.TB, ctx string, g *graph.Graph, set []uint64) {
	t.Helper()
	if want := (g.N() + 63) / 64; len(set) != want {
		t.Fatalf("%s: %d set words for %d vertices, want %d", ctx, len(set), g.N(), want)
	}
	inDS := make([]bool, g.N())
	graph.UnpackSet(inDS, set)
	AssertDominatingSet(t, ctx, g, inDS)
}

// AssertFractionallyDominated fails t unless x fractionally dominates every
// vertex of g: Σ x over the closed neighborhood ≥ 1 − covTol, with every
// entry finite and non-negative — the LP-stage analogue of the dominating
// set predicate, under the exact tolerance the algorithms use.
func AssertFractionallyDominated(t testing.TB, ctx string, g *graph.Graph, x []float64) {
	t.Helper()
	if g.N() != len(x) {
		t.Fatalf("%s: |x| = %d for %d vertices", ctx, len(x), g.N())
	}
	for v, xv := range x {
		if xv < 0 || math.IsNaN(xv) || math.IsInf(xv, 0) {
			t.Fatalf("%s: x[%d] = %v invalid", ctx, v, xv)
		}
		sum := xv
		for _, u := range g.Neighbors(v) {
			sum += x[u]
		}
		if sum < 1-covTol {
			t.Fatalf("%s: vertex %d fractionally uncovered: Σ_N[v] x = %v", ctx, v, sum)
		}
	}
}

// AssertWeightedCost fails t unless costs obey the facade's weight domain
// rule (exactly one finite cost ≥ 1 per vertex — the Options.Validate
// contract) and got is exactly Σ costs over the set, which the domain rule
// bounds below by |DS|. A nil costs vector asserts the unweighted
// convention got == |DS|.
func AssertWeightedCost(t testing.TB, ctx string, g *graph.Graph, inDS []bool, costs []float64, got float64) {
	t.Helper()
	size := graph.SetSize(inDS)
	if costs == nil {
		if got != float64(size) {
			t.Fatalf("%s: unweighted cost %v != size %d", ctx, got, size)
		}
		return
	}
	if len(costs) != g.N() {
		t.Fatalf("%s: %d weights for %d vertices", ctx, len(costs), g.N())
	}
	want := 0.0
	for v, in := range inDS {
		c := costs[v]
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 1 {
			t.Fatalf("%s: weight[%d] = %v outside [1, ∞)", ctx, v, c)
		}
		if in {
			want += c
		}
	}
	if got != want {
		t.Fatalf("%s: weighted cost %v, want Σ costs = %v", ctx, got, want)
	}
	if got < float64(size) {
		t.Fatalf("%s: weighted cost %v below |DS| = %d (costs ≥ 1)", ctx, got, size)
	}
}
