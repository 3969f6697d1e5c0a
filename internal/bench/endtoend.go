package bench

import (
	"math"

	"kwmds"
	"kwmds/internal/baseline"
	"kwmds/internal/core"
	"kwmds/internal/gen"
	"kwmds/internal/lp"
	"kwmds/internal/stats"
)

// T4 — Theorem 6 and the abstract's headline: the full pipeline computes a
// dominating set of expected size O(k·∆^{2/k}·log ∆)·|DS_OPT| in O(k²)
// rounds with O(k²∆) messages per node of O(log ∆) bits. Sizes are judged
// against the Lemma 1 lower bound (so "ratio" is an upper estimate of the
// true approximation factor); the last columns report the measured message
// complexity next to the paper's O-expressions, plus the Ω(∆^{1/k}/k) lower
// bound of [KMW04] for context.
func T4(quick bool, trials int) []*stats.Table {
	t := stats.NewTable(
		"T4 (Theorem 6) — end-to-end: size, rounds and message complexity vs k",
		"graph", "Δ", "k", "mean|DS|", "LB", "ratio≤", "ratio vs ≈LP", "thm6 kΔ^{2/k}ln(Δ+1)", "KMW Ω(Δ^{1/k}/k)",
		"rounds", "msgs/node", "mean bits/msg")
	for _, w := range Medium(quick) {
		lb := lp.DegreeLowerBound(w.G)
		// A (1+ε) estimate of LP_OPT from the MWU covering solver gives a
		// realistic (if not strictly one-sided) ratio estimate next to the
		// rigorous but loose Lemma-1 ratio.
		approxLP, _, err := lp.ApproxOptimum(w.G, nil, 0.15)
		if err != nil {
			panic(err)
		}
		delta := w.G.MaxDegree()
		logK := core.LogDeltaK(delta)
		ks := []int{1, 2, 3, 4, 6, logK}
		if quick {
			ks = []int{1, 2, logK}
		}
		for _, k := range ks {
			var size float64
			var rounds int
			var msgs, bits int64
			for trial := 0; trial < trials; trial++ {
				res, err := kwmds.DominatingSet(w.G, kwmds.Options{K: k, Seed: int64(trial)})
				if err != nil {
					panic(err)
				}
				size += float64(res.Size)
				rounds = res.Rounds
				msgs, bits = res.Messages, res.Bits
			}
			size /= float64(trials)
			base := float64(delta + 1)
			t.AddRow(w.Name, delta, k, size, lb, size/lb, size/approxLP,
				float64(k)*math.Pow(base, 2/float64(k))*math.Log(base),
				math.Pow(base, 1/float64(k))/float64(k),
				rounds, float64(msgs)/float64(w.G.N()), float64(bits)/float64(msgs))
		}
	}
	return []*stats.Table{t}
}

// T5 — the positioning table from Sections 1-2: the paper's pipeline
// against every baseline it cites. Constant-round KW is compared at k=2 and
// k=log∆ with the sequential greedy (quality yardstick, not distributed),
// JRS [11] (the only prior sublinear non-trivial ratio), Wu-Li [22]
// (constant rounds, no ratio), Luby MIS and the trivial all-nodes set.
func T5(quick bool, trials int) []*stats.Table {
	t := stats.NewTable(
		"T5 (Sections 1-2) — algorithm comparison",
		"graph", "algorithm", "mean|DS|", "ratio≤ (vs LB)", "rounds", "msgs/node")
	for _, w := range Medium(quick) {
		lb := lp.DegreeLowerBound(w.G)
		n := float64(w.G.N())
		logK := core.LogDeltaK(w.G.MaxDegree())

		type algo struct {
			name string
			run  func(seed int64) (float64, int, int64)
		}
		algos := []algo{
			{"kw k=2", func(seed int64) (float64, int, int64) {
				res, err := kwmds.DominatingSet(w.G, kwmds.Options{K: 2, Seed: seed})
				if err != nil {
					panic(err)
				}
				return float64(res.Size), res.Rounds, res.Messages
			}},
			{"kw k=log∆", func(seed int64) (float64, int, int64) {
				res, err := kwmds.DominatingSet(w.G, kwmds.Options{K: logK, Seed: seed})
				if err != nil {
					panic(err)
				}
				return float64(res.Size), res.Rounds, res.Messages
			}},
			{"greedy (seq)", func(int64) (float64, int, int64) {
				res := baseline.Greedy(w.G)
				return float64(res.Size), 0, 0
			}},
			{"jrs", func(seed int64) (float64, int, int64) {
				res, err := baseline.JRS(w.G, seed)
				if err != nil {
					panic(err)
				}
				return float64(res.Size), res.Rounds, res.Messages
			}},
			{"wu-li", func(int64) (float64, int, int64) {
				res, err := baseline.WuLi(w.G)
				if err != nil {
					panic(err)
				}
				return float64(res.Size), res.Rounds, res.Messages
			}},
			{"luby-mis", func(seed int64) (float64, int, int64) {
				res, err := baseline.LubyMIS(w.G, seed)
				if err != nil {
					panic(err)
				}
				return float64(res.Size), res.Rounds, res.Messages
			}},
			{"trivial", func(int64) (float64, int, int64) {
				return n, 0, 0
			}},
		}
		for _, a := range algos {
			var size float64
			var rounds int
			var msgs int64
			for trial := 0; trial < trials; trial++ {
				s, r, m := a.run(int64(trial))
				size += s
				rounds, msgs = r, m
			}
			size /= float64(trials)
			t.AddRow(w.Name, a.name, size, size/lb, rounds, float64(msgs)/n)
		}
	}
	return []*stats.Table{t}
}

// T8 — remark after Theorem 6: with k = Θ(log ∆) the pipeline is an
// O(log²∆) approximation in O(log²∆) rounds. The table sweeps the density
// of a unit-disk deployment so ∆ grows, and reports the measured ratio and
// rounds next to log²∆.
func T8(trials int) []*stats.Table {
	t := stats.NewTable(
		"T8 (remark after Theorem 6) — k = log∆ scaling as ∆ grows",
		"radius", "n", "Δ", "k=log∆", "rounds", "log²Δ", "mean|DS|", "LB", "ratio≤")
	for _, radius := range []float64{0.03, 0.05, 0.08, 0.12, 0.18} {
		g := mustG(gen.UnitDisk(900, radius, 109))
		lb := lp.DegreeLowerBound(g)
		delta := g.MaxDegree()
		k := core.LogDeltaK(delta)
		var size float64
		var rounds int
		for trial := 0; trial < trials; trial++ {
			res, err := kwmds.DominatingSet(g, kwmds.Options{K: k, Seed: int64(trial)})
			if err != nil {
				panic(err)
			}
			size += float64(res.Size)
			rounds = res.Rounds
		}
		size /= float64(trials)
		log2d := math.Log2(float64(delta + 1))
		t.AddRow(radius, g.N(), delta, k, rounds, log2d*log2d, size, lb, size/lb)
	}
	return []*stats.Table{t}
}
