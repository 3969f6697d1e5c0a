package core

import (
	"fmt"
	"math"

	"kwmds/internal/graph"
	"kwmds/internal/sim"
)

// This file implements the weighted fractional dominating set variant from
// the remark after Theorem 4. Nodes carry costs c_i ∈ [1, c_max]; the
// objective is Σ c_i·x_i. Following the remark, the scaled dynamic degree
// γ̃(v_i) = (c_max/c_i)·δ̃(v_i) replaces δ̃ in the activity test and the
// threshold becomes [c_max(∆+1)]^{ℓ/k}; the x-update of Algorithm 2 is kept.
// The claimed approximation ratio is k(∆+1)^{1/k}·[c_max(∆+1)]^{1/k}
// (verified empirically by experiment T7).

// validateCosts checks c_i ≥ 1 (as the remark assumes) and returns c_max.
func validateCosts(n int, costs []float64) (float64, error) {
	if len(costs) != n {
		return 0, fmt.Errorf("core: %d costs for %d vertices", len(costs), n)
	}
	cmax := 1.0
	for i, c := range costs {
		if c < 1 || math.IsNaN(c) || math.IsInf(c, 0) {
			return 0, fmt.Errorf("core: cost[%d] = %v outside [1, ∞)", i, c)
		}
		if c > cmax {
			cmax = c
		}
	}
	return cmax, nil
}

// ReferenceWeighted runs the weighted variant sequentially.
func ReferenceWeighted(g *graph.Graph, k int, costs []float64, opts ...RefOption) (*RefResult, error) {
	thr, pw, cmax, err := weightedTables(g, k, costs)
	if err != nil {
		return nil, err
	}
	return referenceThreshold(g, k, thr, pw, costs, cmax, applyRefOptions(opts)), nil
}

// FractionalWeighted runs the weighted variant on the simulator in exactly
// 2k² rounds. As in Algorithm 2, ∆ (and here also c_max) is global
// knowledge. The result's X is bit-identical to ReferenceWeighted's.
func FractionalWeighted(g *graph.Graph, k int, costs []float64, opts ...sim.Option) (*Result, error) {
	thr, pw, cmax, err := weightedTables(g, k, costs)
	if err != nil {
		return nil, err
	}
	res, err := fractionalThreshold(g, k, thr, pw, costs, cmax, opts)
	if err != nil {
		return nil, fmt.Errorf("core: weighted algorithm: %w", err)
	}
	return res, nil
}

// weightedTables validates k and the costs and returns the weighted
// variant's tables: the activity thresholds [c_max(∆+1)]^{i/k}, Algorithm
// 2's x-raise table (∆+1)^{i/k}, and c_max.
func weightedTables(g *graph.Graph, k int, costs []float64) (thr, pw []float64, cmax float64, err error) {
	if err := validateK(k); err != nil {
		return nil, nil, 0, err
	}
	if cmax, err = validateCosts(g.N(), costs); err != nil {
		return nil, nil, 0, err
	}
	d := float64(g.MaxDegree() + 1)
	return powTable(cmax*d, k), powTable(d, k), cmax, nil
}
