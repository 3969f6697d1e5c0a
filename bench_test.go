// One benchmark per experiment of internal/bench/registry.go (T1–T9, F1).
// Each benchmark runs a representative slice of the corresponding
// experiment (the full tables are produced by cmd/experiments) and reports
// the experiment's key quality metric via b.ReportMetric alongside the
// usual time/allocation figures.
//
//	go test -bench=. -benchmem
package kwmds_test

import (
	"testing"

	"kwmds"
	"kwmds/internal/baseline"
	"kwmds/internal/bench"
	"kwmds/internal/core"
	"kwmds/internal/exact"
	"kwmds/internal/graph"
	"kwmds/internal/lp"
	"kwmds/internal/rounding"
)

// benchGraph returns the shared medium workload: a 600-node unit-disk
// deployment (the paper's motivating topology).
func benchGraph(b *testing.B) *kwmds.Graph {
	b.Helper()
	g, err := kwmds.UnitDisk(600, 0.08, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// smallGraph returns a graph small enough for the simplex LP optimum.
func smallGraph(b *testing.B) *kwmds.Graph {
	b.Helper()
	g, err := kwmds.UnitDisk(120, 0.16, 102)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkT1_Alg2Fractional measures Algorithm 2 (known ∆, distributed)
// and reports its LP approximation ratio against the exact LP optimum.
func BenchmarkT1_Alg2Fractional(b *testing.B) {
	g := smallGraph(b)
	opt, _, err := lp.Optimum(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	const k = 4
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.FractionalKnownDelta(g, k)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lp.Objective(res.X) / opt
	}
	b.ReportMetric(ratio, "ratio")
	b.ReportMetric(core.KnownDeltaBound(k, g.MaxDegree()), "bound")
}

// BenchmarkT2_Alg3Fractional measures Algorithm 3 (∆ unknown, distributed).
func BenchmarkT2_Alg3Fractional(b *testing.B) {
	g := smallGraph(b)
	opt, _, err := lp.Optimum(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	const k = 4
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Fractional(g, k)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lp.Objective(res.X) / opt
	}
	b.ReportMetric(ratio, "ratio")
	b.ReportMetric(core.UnknownDeltaBound(k, g.MaxDegree()), "bound")
}

// BenchmarkT3_Rounding measures Algorithm 1 on an LP-optimal input and
// reports the measured size ratio vs the exact integral optimum.
func BenchmarkT3_Rounding(b *testing.B) {
	g, err := kwmds.UnitDisk(55, 0.25, 104)
	if err != nil {
		b.Fatal(err)
	}
	_, xStar, err := lp.Optimum(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	optDS, err := exact.MinimumDominatingSet(g)
	if err != nil {
		b.Fatal(err)
	}
	opt := float64(graph.SetSize(optDS))
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rounding.Reference(g, xStar, rounding.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		total += float64(res.Size)
	}
	b.ReportMetric(total/float64(b.N)/opt, "mean-ratio")
}

// BenchmarkT4_EndToEnd measures the full pipeline (Algorithm 3 + rounding)
// on the medium workload and reports size ratio vs the Lemma 1 bound plus
// message complexity per node.
func BenchmarkT4_EndToEnd(b *testing.B) {
	g := benchGraph(b)
	lb := lp.DegreeLowerBound(g)
	const k = 3
	var size float64
	var msgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := kwmds.DominatingSet(g, kwmds.Options{K: k, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		size = float64(res.Size)
		msgs = res.Messages
	}
	b.ReportMetric(size/lb, "ratio")
	b.ReportMetric(float64(msgs)/float64(g.N()), "msgs/node")
}

// BenchmarkT5_Baselines measures each comparison algorithm on the shared
// workload; sub-benchmarks make the costs directly comparable.
func BenchmarkT5_Baselines(b *testing.B) {
	g := benchGraph(b)
	lb := lp.DegreeLowerBound(g)
	report := func(b *testing.B, size int) {
		b.ReportMetric(float64(size)/lb, "ratio")
	}
	// seeded runs a randomized arm. Its ratio is the mean size over seeds
	// 1-8, taken before the timer starts, and the timed iterations cycle
	// through those seeds, so the ratio does not depend on b.N.
	seeded := func(b *testing.B, run func(seed int64) (int, error)) {
		const seeds = 8
		total := 0
		for seed := int64(1); seed <= seeds; seed++ {
			size, err := run(seed)
			if err != nil {
				b.Fatal(err)
			}
			total += size
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := run(int64(i%seeds) + 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(total)/seeds/lb, "ratio")
	}
	b.Run("kw-logdelta", func(b *testing.B) {
		seeded(b, func(seed int64) (int, error) {
			res, err := kwmds.DominatingSet(g, kwmds.Options{Seed: seed})
			if err != nil {
				return 0, err
			}
			return res.Size, nil
		})
	})
	b.Run("greedy", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size = baseline.Greedy(g).Size
		}
		report(b, size)
	})
	b.Run("jrs", func(b *testing.B) {
		seeded(b, func(seed int64) (int, error) {
			res, err := baseline.JRS(g, seed)
			if err != nil {
				return 0, err
			}
			return res.Size, nil
		})
	})
	b.Run("wuli", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			res, err := baseline.WuLi(g)
			if err != nil {
				b.Fatal(err)
			}
			size = res.Size
		}
		report(b, size)
	})
	b.Run("luby-mis", func(b *testing.B) {
		seeded(b, func(seed int64) (int, error) {
			res, err := baseline.LubyMIS(g, seed)
			if err != nil {
				return 0, err
			}
			return res.Size, nil
		})
	})
}

// BenchmarkT6_RoundingVariant measures the ln−lnln variant.
func BenchmarkT6_RoundingVariant(b *testing.B) {
	g, err := kwmds.UnitDisk(55, 0.25, 104)
	if err != nil {
		b.Fatal(err)
	}
	_, xStar, err := lp.Optimum(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rounding.Reference(g, xStar,
			rounding.Options{Seed: int64(i), Variant: rounding.LnMinusLnLn})
		if err != nil {
			b.Fatal(err)
		}
		total += float64(res.Size)
	}
	b.ReportMetric(total/float64(b.N), "mean-size")
}

// BenchmarkT7_Weighted measures the weighted fractional variant and reports
// its ratio against the weighted LP optimum.
func BenchmarkT7_Weighted(b *testing.B) {
	g := smallGraph(b)
	costs := make([]float64, g.N())
	for i := range costs {
		costs[i] = 1 + 9*float64(i%7)/6
	}
	wOpt, _, err := lp.Optimum(g, costs)
	if err != nil {
		b.Fatal(err)
	}
	const k = 4
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.ReferenceWeighted(g, k, costs)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lp.WeightedObjective(res.X, costs) / wOpt
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkT8_LogDelta measures the pipeline at the paper's recommended
// k = log ∆ and reports rounds (the O(log²∆) claim).
func BenchmarkT8_LogDelta(b *testing.B) {
	g := benchGraph(b)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := kwmds.DominatingSet(g, kwmds.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkT9_DualBound measures the Lemma 1 bound computation (the
// scalable optimum estimate) on the medium workload.
func BenchmarkT9_DualBound(b *testing.B) {
	g := benchGraph(b)
	var lb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb = lp.DegreeLowerBound(g)
	}
	b.ReportMetric(lb, "bound")
}

// BenchmarkF1_Cascade measures the instrumented sequential reference on the
// Figure 1 instance (trace collection included).
func BenchmarkF1_Cascade(b *testing.B) {
	tables := bench.Run("F1", bench.QuickConfig())
	if len(tables) == 0 {
		b.Fatal("F1 runner missing")
	}
	g, err := kwmds.Star(200)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReferenceKnownDelta(g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRound measures the raw cost of one synchronous round
// (barrier + broadcast delivery) per node on the medium workload.
func BenchmarkSimulatorRound(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.FractionalKnownDelta(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(float64(8), "rounds")
}

// BenchmarkSequentialReference contrasts the sequential fast path with the
// simulated execution measured above.
func BenchmarkSequentialReference(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReferenceKnownDelta(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}
