package kwmds

import (
	"fmt"

	"kwmds/internal/cds"
	"kwmds/internal/core"
	"kwmds/internal/fastpath"
	"kwmds/internal/graph"
	"kwmds/internal/lp"
	"kwmds/internal/rounding"
)

// RoundingVariant selects the scaling used by the rounding stage.
type RoundingVariant = rounding.Variant

// Rounding variants.
const (
	// VariantLn is Algorithm 1 as published: p = min{1, x·ln(δ⁽²⁾+1)},
	// expected size (1+α·ln(∆+1))·|DS_OPT| (Theorem 3).
	VariantLn = rounding.Ln
	// VariantLnMinusLnLn is the remark's refinement with expected size
	// 2α(ln(∆+1) − ln ln(∆+1))·|DS_OPT|.
	VariantLnMinusLnLn = rounding.LnMinusLnLn
)

// Options configures a run of the Kuhn–Wattenhofer pipeline.
type Options struct {
	// K is the paper's trade-off parameter: O(k²) rounds for an
	// O(k·∆^{2/k}·log ∆) expected approximation. K = 0 selects the
	// paper's recommended k = Θ(log ∆) (remark after Theorem 6).
	K int
	// Seed drives the rounding stage's coin flips (the LP stage is
	// deterministic). Runs with equal seeds are identical.
	Seed int64
	// KnownDelta switches the LP stage to Algorithm 2, which assumes all
	// nodes know the global maximum degree ∆ and runs in 2k² rounds with
	// the sharper k(∆+1)^{2/k} LP guarantee. The default is Algorithm 3
	// (no global knowledge, 4k²+2k+2 rounds).
	KnownDelta bool
	// Variant selects the rounding scaling (default VariantLn).
	Variant RoundingVariant
	// Weights, when non-nil, runs the weighted fractional variant from
	// the remark after Theorem 4 with node costs c_i ∈ [1, ∞). The
	// rounding stage is unchanged (the paper gives no weighted rounding);
	// Result.WeightedCost reports the resulting set's cost. Weights takes
	// precedence over KnownDelta: the weighted variant is defined only
	// for the unknown-∆ LP stage.
	Weights []float64
	// Sequential runs the fastpath solver (internal/fastpath) instead of
	// the message-passing simulation: the same pipeline executed
	// frontier-driven and phase-parallel directly over the graph's CSR
	// arrays, drawing its buffers from a pool shared across calls. The
	// output is bit-identical to the simulated execution; round and
	// message statistics are zero. This is the path for large graphs and
	// for serving — the serve subsystem's cold solves run through it.
	Sequential bool
	// SolverWorkers bounds the fastpath solver's phase parallelism for
	// Sequential runs (≤ 0 selects GOMAXPROCS). The output is
	// bit-identical for every worker count; the knob exists so callers
	// that already run many solves concurrently — the serve subsystem's
	// worker pool — can stop the per-solve pools from oversubscribing
	// the machine. Ignored for simulated runs.
	SolverWorkers int
	// Shards, when > 1, partitions the graph into that many contiguous
	// vertex ranges and solves them as a lockstep shard group (implies
	// Sequential; at most MaxShards). Like the worker count, the shard
	// count never affects output. DominatingSet partitions per call —
	// callers solving one topology repeatedly should PartitionGraph once
	// and use DominatingSetSharded instead. Not supported by
	// FractionalDominatingSet or DominatingSetMany.
	Shards int
	// Cancel, when non-nil, aborts a Sequential solve early once the
	// channel closes: DominatingSet and FractionalDominatingSet return
	// ErrCanceled at the next LP iteration boundary. Serving stacks close
	// it when the requesting client disconnects. Ignored by simulated
	// runs, by DominatingSetMany (a batch amortizes work across callers)
	// and by sharded solves (a shard group aborts only through its
	// exchange failing).
	Cancel <-chan struct{}
	// Reordered, when non-nil, runs the Sequential solver over the
	// degree-ordered permutation of the graph (build it once with Reorder)
	// for better cache locality on skewed-degree graphs. Outputs stay
	// indexed by original vertex ids and are bit-identical to a solve
	// without it. Requires Sequential; not supported by sharded solves.
	Reordered *ReorderedGraph
}

// ErrCanceled reports that a solve was abandoned because Options.Cancel
// closed before the pipeline finished. Test with errors.Is.
var ErrCanceled = fastpath.ErrCanceled

// Result is the outcome of DominatingSet.
type Result struct {
	// InDS marks the dominating set members, indexed by vertex.
	InDS []bool
	// Size is the number of members.
	Size int
	// WeightedCost is Σ_{v∈DS} c_v when Options.Weights was set,
	// otherwise equal to Size.
	WeightedCost float64
	// Fractional is the LP stage's x-vector (a feasible fractional
	// dominating set). The slice is owned by the caller: it never aliases
	// solver-internal or pooled storage, so callers (and cache entries
	// holding a Result) may keep or mutate it freely.
	Fractional []float64
	// LPObjective is Σx of the fractional stage.
	LPObjective float64
	// K is the effective trade-off parameter used.
	K int
	// Rounds is the total number of synchronous communication rounds
	// (LP stage + rounding stage); zero when Sequential.
	Rounds int
	// Messages and Bits aggregate the deliveries and payload volume over
	// both stages; zero when Sequential.
	Messages int64
	Bits     int64
	// JoinedRandom and JoinedFixup split the set by join reason (the X
	// and Y of Theorem 3's proof).
	JoinedRandom int
	JoinedFixup  int
	// Connectors is the number of bridge vertices added by
	// ConnectedDominatingSet (zero for DominatingSet).
	Connectors int
}

// FractionalResult is the outcome of FractionalDominatingSet.
type FractionalResult struct {
	// X is a feasible fractional dominating set.
	X []float64
	// Objective is Σx (for weighted runs, compute the weighted objective
	// with WeightedObjective).
	Objective float64
	// Bound is the theorem's approximation guarantee for this run:
	// Objective ≤ Bound · LP_OPT.
	Bound float64
	// K is the effective trade-off parameter used.
	K int
	// Rounds, Messages, Bits are simulation statistics (zero when
	// Sequential).
	Rounds   int
	Messages int64
	Bits     int64
}

// effectiveK resolves Options.K, defaulting to the paper's k = Θ(log ∆).
// Callers pass the graph's maximum degree so it is computed once per entry
// point and shared with the bound derivation.
func effectiveK(k, delta int) int {
	if k != 0 {
		return k
	}
	return core.LogDeltaK(delta)
}

// lpBound returns the approximation guarantee matching the selected LP
// variant.
func lpBound(opts Options, k, delta int) float64 {
	switch {
	case opts.Weights != nil:
		cmax := 1.0
		for _, c := range opts.Weights {
			if c > cmax {
				cmax = c
			}
		}
		return core.WeightedBound(k, delta, cmax)
	case opts.KnownDelta:
		return core.KnownDeltaBound(k, delta)
	default:
		return core.UnknownDeltaBound(k, delta)
	}
}

// fastOptions maps facade options onto the fastpath solver's.
func fastOptions(opts Options, k int) fastpath.Options {
	fo := fastpath.Options{K: k, Seed: opts.Seed, Variant: opts.Variant, Workers: opts.SolverWorkers, Cancel: opts.Cancel,
		Relab: opts.Reordered}
	switch {
	case opts.Weights != nil:
		fo.Algorithm = fastpath.AlgWeighted
		fo.Costs = opts.Weights
	case opts.KnownDelta:
		fo.Algorithm = fastpath.Alg2
	}
	return fo
}

// FractionalDominatingSet runs only the LP stage (Section 5 of the paper)
// and returns the fractional solution with its guarantee. The returned X
// is owned by the caller.
func FractionalDominatingSet(g *Graph, opts Options) (*FractionalResult, error) {
	if err := opts.Validate(g); err != nil {
		return nil, fmt.Errorf("kwmds: %w", err)
	}
	if opts.Shards > 1 {
		return nil, fmt.Errorf("kwmds: %w: Shards applies only to the full pipeline (DominatingSet)", ErrInvalidOptions)
	}
	delta := g.MaxDegree()
	k := effectiveK(opts.K, delta)
	out := &FractionalResult{K: k, Bound: lpBound(opts, k, delta)}
	if opts.Sequential {
		s := fastpath.Acquire(g.N())
		x, err := s.Fractional(g, fastOptions(opts, k))
		if err != nil {
			fastpath.Release(s)
			return nil, err
		}
		// Copy before releasing: x aliases the pooled solver's buffer.
		out.X = append(make([]float64, 0, len(x)), x...)
		fastpath.Release(s)
	} else {
		var res *core.Result
		var err error
		switch {
		case opts.Weights != nil:
			res, err = core.FractionalWeighted(g, k, opts.Weights)
		case opts.KnownDelta:
			res, err = core.FractionalKnownDelta(g, k)
		default:
			res, err = core.Fractional(g, k)
		}
		if err != nil {
			return nil, err
		}
		out.X, out.Rounds, out.Messages, out.Bits = res.X, res.Rounds, res.Messages, res.Bits
	}
	out.Objective = lp.Objective(out.X)
	return out, nil
}

// DominatingSet runs the full Kuhn–Wattenhofer pipeline: the distributed LP
// approximation followed by distributed randomized rounding. The returned
// set is always a valid dominating set; its expected size is within
// O(k·∆^{2/k}·log ∆) of optimal (Theorem 6).
func DominatingSet(g *Graph, opts Options) (*Result, error) {
	if opts.Shards > 1 {
		if err := opts.Validate(g); err != nil {
			return nil, fmt.Errorf("kwmds: %w", err)
		}
		sc, err := PartitionGraph(g, opts.Shards)
		if err != nil {
			return nil, fmt.Errorf("kwmds: %w", err)
		}
		return DominatingSetSharded(sc, opts)
	}
	if opts.Sequential {
		return fastDominatingSet(g, opts)
	}
	frac, err := FractionalDominatingSet(g, opts)
	if err != nil {
		return nil, err
	}
	rres, err := rounding.Round(g, frac.X, rounding.Options{Seed: opts.Seed, Variant: opts.Variant})
	if err != nil {
		return nil, err
	}
	res := &Result{
		InDS:         rres.InDS,
		Size:         rres.Size,
		WeightedCost: float64(rres.Size),
		Fractional:   frac.X,
		LPObjective:  frac.Objective,
		K:            frac.K,
		Rounds:       frac.Rounds + rres.Rounds,
		Messages:     frac.Messages + rres.Messages,
		Bits:         frac.Bits + rres.Bits,
		JoinedRandom: rres.JoinedRandom,
		JoinedFixup:  rres.JoinedFixup,
	}
	res.WeightedCost = weightedCost(opts.Weights, res.InDS, res.Size)
	return res, nil
}

// fastDominatingSet is the Sequential execution of the full pipeline: one
// pooled fastpath solver runs LP stage and rounding back to back over
// reused buffers, and only the final vectors are copied out.
func fastDominatingSet(g *Graph, opts Options) (*Result, error) {
	if err := opts.Validate(g); err != nil {
		return nil, fmt.Errorf("kwmds: %w", err)
	}
	delta := g.MaxDegree()
	k := effectiveK(opts.K, delta)
	s := fastpath.Acquire(g.N())
	fres, err := s.Solve(g, fastOptions(opts, k))
	if err != nil {
		fastpath.Release(s)
		return nil, err
	}
	res := &Result{
		InDS:         append(make([]bool, 0, len(fres.InDS)), fres.InDS...),
		Size:         fres.Size,
		Fractional:   append(make([]float64, 0, len(fres.X)), fres.X...),
		K:            k,
		JoinedRandom: fres.JoinedRandom,
		JoinedFixup:  fres.JoinedFixup,
	}
	fastpath.Release(s)
	res.LPObjective = lp.Objective(res.Fractional)
	res.WeightedCost = weightedCost(opts.Weights, res.InDS, res.Size)
	return res, nil
}

// DominatingSetMany runs the full pipeline once per element of optsList
// against one graph on a single pooled solver, amortizing solver
// acquisition and table setup. The deterministic LP stage runs only when an
// element's LP configuration (K/KnownDelta/Weights contents) differs from
// the one the solver last completed on this graph — the solver's LP memo,
// which a repeated configuration hits even across calls — so consecutive
// elements sharing a configuration pay only the rounding phases. Every
// returned Result is bit-identical to DominatingSet with the same options;
// all elements run Sequential (the batch is a fastpath concept). Its
// callers are kwbench's batched closed loop (batch_size) and batch_solve
// mix op, and the perfbench module's in-process mirror; the serve
// subsystem runs each cold solve on its own.
func DominatingSetMany(g *Graph, optsList []Options) ([]*Result, error) {
	if len(optsList) == 0 {
		return nil, nil
	}
	delta := g.MaxDegree()
	fopts := make([]fastpath.Options, len(optsList))
	out := make([]*Result, len(optsList))
	for i, opts := range optsList {
		if err := opts.Validate(g); err != nil {
			return nil, fmt.Errorf("kwmds: batch element %d: %w", i, err)
		}
		if opts.Shards > 1 {
			return nil, fmt.Errorf("kwmds: batch element %d: %w: batching does not support sharded solves", i, ErrInvalidOptions)
		}
		fopts[i] = fastOptions(opts, effectiveK(opts.K, delta))
	}
	s := fastpath.Acquire(g.N())
	err := s.SolveMany(g, fopts, func(i int, fres fastpath.Result) {
		out[i] = &Result{
			InDS:         append(make([]bool, 0, len(fres.InDS)), fres.InDS...),
			Size:         fres.Size,
			Fractional:   append(make([]float64, 0, len(fres.X)), fres.X...),
			K:            fopts[i].K,
			JoinedRandom: fres.JoinedRandom,
			JoinedFixup:  fres.JoinedFixup,
		}
	})
	fastpath.Release(s)
	if err != nil {
		return nil, err
	}
	for i, res := range out {
		res.LPObjective = lp.Objective(res.Fractional)
		res.WeightedCost = weightedCost(optsList[i].Weights, res.InDS, res.Size)
	}
	return out, nil
}

// weightedCost is Σ_{v∈DS} c_v, or |DS| when costs are nil.
func weightedCost(weights []float64, inDS []bool, size int) float64 {
	if weights == nil {
		return float64(size)
	}
	var c float64
	for v, in := range inDS {
		if in {
			c += weights[v]
		}
	}
	return c
}

// ConnectedDominatingSet runs the full pipeline and then upgrades the
// result to a *connected* dominating set — the routing-backbone structure
// the paper's introduction motivates — by bridging adjacent dominator
// clusters with at most two connector vertices each (|CDS| ≤ 3·|DS| − 2
// per connected component; Result.Connectors counts the additions). Within
// every connected component of g the returned set induces a connected
// subgraph.
func ConnectedDominatingSet(g *Graph, opts Options) (*Result, error) {
	res, err := DominatingSet(g, opts)
	if err != nil {
		return nil, err
	}
	cres, err := cds.Connect(g, res.InDS)
	if err != nil {
		return nil, err
	}
	res.InDS = cres.InCDS
	res.Size = cres.Size
	res.Connectors = cres.Connectors
	res.WeightedCost = weightedCost(opts.Weights, res.InDS, res.Size)
	return res, nil
}

// IsConnectedDominatingSet reports whether the set dominates g and induces
// a connected subgraph within every connected component.
func IsConnectedDominatingSet(g *Graph, set []bool) bool {
	return cds.IsConnectedDominatingSet(g, set)
}

// DualLowerBound returns the paper's Lemma 1 bound Σ_i 1/(δ⁽¹⁾_i+1), a
// lower bound on the size of every dominating set of g (including the
// optimum). It scales to arbitrary graphs and is the recommended yardstick
// when the exact optimum is out of reach.
func DualLowerBound(g *Graph) float64 { return lp.DegreeLowerBound(g) }

// LPOptimum computes the exact optimum of the fractional dominating set LP
// with the built-in simplex solver. Costs may be nil for the unweighted
// objective. Intended for graphs up to a few hundred vertices.
func LPOptimum(g *Graph, costs []float64) (float64, error) {
	val, _, err := lp.Optimum(g, costs)
	return val, err
}

// WeightedObjective returns Σ c_i·x_i.
func WeightedObjective(x, costs []float64) float64 { return lp.WeightedObjective(x, costs) }

// IsFractionallyFeasible reports whether x is a feasible fractional
// dominating set of g (N·x ≥ 1, x ≥ 0).
func IsFractionallyFeasible(g *Graph, x []float64) bool { return lp.IsFeasible(g, x) }

// RecommendedK returns the paper's recommended trade-off parameter
// k = Θ(log ∆) for g, which yields an O(log²∆) approximation in O(log²∆)
// rounds (remark after Theorem 6).
func RecommendedK(g *Graph) int { return core.LogDeltaK(g.MaxDegree()) }

// ensure the alias stays in sync with the internal package.
var _ = graph.SetSize
