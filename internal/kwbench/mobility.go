package kwbench

import (
	"fmt"
	"runtime"
	"time"

	"kwmds"
	"kwmds/internal/dyngraph"
	"kwmds/internal/fastpath"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/hdr"
	"kwmds/internal/mobility"
	"kwmds/internal/rounding"
)

// runMobility executes a dynamic-graph replay — the workload the paper
// motivates, where the topology of an ad-hoc network changes underneath the
// algorithm. A random-walk trace of unit-disk snapshots is generated from
// the spec, and every epoch is a single end-to-end op: ingest the epoch's
// topology change and produce the new dominating set. Epochs run
// sequentially (an epoch's solve cannot start before the topology change
// that defines it), the first WarmupOps epochs are untimed, and the result
// carries dominating-set and edge churn alongside the usual
// latency/throughput/allocation block.
//
// In rebuild mode the op is what a static pipeline must do per epoch:
// reconstruct the unit-disk CSR from the node positions, then cold-solve
// through the facade. In churn mode the op replays the epoch's link events
// through the dyngraph mutation API — ApplyEdgeDeltas + Commit, then
// fastpath's Fractional of the committed graph on a persistent solver,
// which repairs its state from the previous epoch's over the graph's
// lineage and replays its LP stage, and Round of that x, each stage timed
// apart —
// with the deltas themselves derived outside the timed section (in a
// deployed system link events arrive from the radio layer; deriving them is
// sensing, not processing). The two modes measure the same
// epoch-processing contract, so their latencies are directly comparable;
// the dominating sets are bit-identical to a cold solve, cross-checkable
// against the sim backend.
func runMobility(sc *Scenario, opts RunOptions) (*ScenarioResult, error) {
	m := sc.Mobility
	epochs := m.Epochs
	if opts.Quick {
		if limit := max(sc.WarmupOps+2, 4); epochs > limit {
			epochs = limit
		}
	}
	seed := m.Seed
	if seed == 0 {
		seed = 1
	}
	trace, err := mobility.RandomWalk(m.N, m.Radius, m.Speed, epochs, seed)
	if err != nil {
		return nil, fmt.Errorf("kwbench: scenario %q: %w", sc.Name, err)
	}
	c := sc.Matrix.combos()[0]
	seeds := effectiveSeeds(sc)
	fail := func(e int, err error) (*ScenarioResult, error) {
		return nil, fmt.Errorf("kwbench: scenario %q epoch %d: %w", sc.Name, e, err)
	}
	res := &ScenarioResult{
		Name:        sc.Name,
		Description: sc.Description,
		Driver:      sc.Driver,
		Loop:        "replay",
		Graphs:      []GraphInfo{{Name: "epoch-0", N: trace.Graphs[0].N(), M: trace.Graphs[0].M()}},
		Combos:      1,
		Seeds:       seeds,
		WarmupOps:   sc.WarmupOps,
	}

	epochSeed := func(e int) int64 { return 1 + int64(e%seeds) }
	// facadeOpts drives the rebuild mode and the cross-check pass through
	// the same mapping the inproc driver uses.
	facadeOpts := func(e int, sequential bool) kwmds.Options {
		return pipelineOptions(c.Algo, c.Variant, c.K, epochSeed(e), sequential)
	}
	fastOpts := func(e int, g *graph.Graph) fastpath.Options {
		k := c.K
		if k == 0 {
			k = kwmds.RecommendedK(g)
		}
		opt := fastpath.Options{K: k, Seed: epochSeed(e)}
		if c.Algo == "kw2" {
			opt.Algorithm = fastpath.Alg2
		}
		if c.Variant == "ln-lnln" {
			opt.Variant = rounding.LnMinusLnLn
		}
		return opt
	}

	var prev []bool
	// With cross_check on, each epoch's answer is kept for the pass after
	// the measurement windows. The churn mode's sets alias the solver, so
	// record copies them into one buffer allocated up front, keeping the
	// copies out of the allocation window.
	var answers []OpResult
	var sets []bool
	n := trace.Graphs[0].N()
	if sc.CrossCheck {
		answers = make([]OpResult, epochs)
		sets = make([]bool, epochs*n)
	}
	var kept, added, removed, transitions int
	hist := &hdr.Histogram{}
	measuredOps := 0
	var elapsed, commitTotal, lpTotal, roundTotal time.Duration
	var deltaEvents, repaired int
	var msBefore, msAfter runtime.MemStats

	record := func(e int, lat time.Duration, inDS []bool, size int) {
		if e >= sc.WarmupOps {
			hist.Record(lat)
			elapsed += lat
			measuredOps++
		}
		if answers != nil {
			set := sets[e*n : (e+1)*n]
			copy(set, inDS)
			answers[e] = OpResult{Size: size, InDS: set}
		}
		if prev != nil {
			k, a, r := mobility.Churn(prev, inDS)
			kept += k
			added += a
			removed += r
			transitions++
		}
		if prev == nil {
			prev = make([]bool, len(inDS))
		}
		copy(prev, inDS)
	}

	if m.Mode == MobilityRebuild {
		for e := 0; e < epochs; e++ {
			if e == sc.WarmupOps {
				runtime.ReadMemStats(&msBefore)
			}
			t0 := time.Now()
			g, err := gen.UnitDiskFromPoints(trace.Points[e], trace.Radius)
			if err != nil {
				return fail(e, err)
			}
			got, err := kwmds.DominatingSet(g, facadeOpts(e, true))
			lat := time.Since(t0)
			if err != nil {
				return fail(e, err)
			}
			if e == 0 {
				res.ColdMS = float64(lat) / float64(time.Millisecond)
			}
			record(e, lat, got.InDS, got.Size)
		}
	} else { // MobilityChurn
		dyn := dyngraph.New(trace.Graphs[0])
		solver := fastpath.New()
		inDS := make([]bool, n) // each epoch's packed set, unpacked outside the op
		t0 := time.Now()
		got, err := solver.Solve(dyn.Graph(), fastOpts(0, dyn.Graph()))
		lat := time.Since(t0)
		if err != nil {
			return fail(0, err)
		}
		res.ColdMS = float64(lat) / float64(time.Millisecond)
		graph.UnpackSet(inDS, got.Set)
		record(0, lat, inDS, got.Size)
		for e := 1; e < epochs; e++ {
			if e == sc.WarmupOps {
				runtime.ReadMemStats(&msBefore)
			}
			// Delta derivation is outside the op: link events are the
			// system's *input* in this mode.
			add, rem := mobility.EdgeDeltas(trace.Graphs[e-1], trace.Graphs[e])
			t0 := time.Now()
			dyn.ApplyEdgeDeltas(add, rem)
			delta, err := dyn.Commit()
			if err != nil {
				return fail(e, err)
			}
			t1 := time.Now()
			opt := fastOpts(e, delta.Next)
			x, err := solver.Fractional(delta.Next, opt)
			if err != nil {
				return fail(e, err)
			}
			t2 := time.Now()
			got, err := solver.Round(delta.Next, x, opt)
			t3 := time.Now()
			if err != nil {
				return fail(e, err)
			}
			lat := t3.Sub(t0)
			if e >= sc.WarmupOps {
				commitTotal += t1.Sub(t0)
				lpTotal += t2.Sub(t1)
				roundTotal += t3.Sub(t2)
				deltaEvents += len(add) + len(rem)
				if solver.LastLPReplayed() {
					repaired++
				}
			}
			graph.UnpackSet(inDS, got.Set)
			record(e, lat, inDS, got.Size)
		}
	}
	runtime.ReadMemStats(&msAfter)

	// Everything below runs outside the timing and allocation windows:
	// edge-churn accounting (its edge-set map is a real allocation) and
	// the cross-check pass.
	var edgeChurn float64
	for e := 1; e < epochs; e++ {
		shared, onlyA, onlyB := mobility.EdgeChurn(trace.Graphs[e-1], trace.Graphs[e])
		if total := shared + onlyA + onlyB; total > 0 {
			edgeChurn += float64(onlyA+onlyB) / float64(total)
		}
	}
	if sc.CrossCheck {
		for e := 0; e < epochs; e++ {
			want, err := kwmds.DominatingSet(trace.Graphs[e], facadeOpts(e, false))
			if err != nil {
				return nil, fmt.Errorf("kwbench: scenario %q epoch %d cross-check: %w", sc.Name, e, err)
			}
			res.CrossChecked++
			if !sameAnswer(answers[e], OpResult{Size: want.Size, InDS: want.InDS}) {
				res.Mismatches++
			}
		}
	}

	fillCommon(res, hist, measuredOps, elapsed, &msBefore, &msAfter)
	mr := &MobilityResult{Epochs: epochs, Mode: m.Mode}
	if transitions > 0 {
		mr.MeanKept = float64(kept) / float64(transitions)
		mr.MeanAdded = float64(added) / float64(transitions)
		mr.MeanRemoved = float64(removed) / float64(transitions)
	}
	if epochs > 1 {
		mr.MeanEdgeChurn = edgeChurn / float64(epochs-1)
	}
	if m.Mode == MobilityChurn && measuredOps > 0 {
		mr.MeanEdgeDeltas = float64(deltaEvents) / float64(measuredOps)
		perOp := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(measuredOps) }
		mr.MeanCommitMS = perOp(commitTotal)
		lp, round := perOp(lpTotal), perOp(roundTotal)
		mr.MeanLPMS, mr.MeanRoundMS = &lp, &round
		mr.RepairedEpochs = repaired
	}
	res.Mobility = mr
	if res.Mismatches > 0 {
		return nil, fmt.Errorf("kwbench: scenario %q: %d/%d cross-checked epochs disagreed between the %s-mode ops and the sim backend",
			sc.Name, res.Mismatches, res.CrossChecked, m.Mode)
	}
	return res, nil
}
