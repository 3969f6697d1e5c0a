// Package bench is the experiment harness: one runner per experiment id
// registered in registry.go (T1–T9, F1, L1), each regenerating a table
// that checks a quantitative claim of the paper. cmd/experiments prints
// the tables that EXPERIMENTS.md records; bench_test.go exposes one
// testing.B benchmark per experiment.
package bench

import (
	"fmt"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// Workload is a named graph instance.
type Workload struct {
	Name string
	G    *graph.Graph
}

// mustG panics on generator errors: workloads are fixed, correct-by-
// construction instances (failing fast here beats threading errors through
// every experiment).
func mustG(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(fmt.Sprintf("bench: workload generation failed: %v", err))
	}
	return g
}

// Small returns workloads small enough for the simplex LP optimum
// (n ≲ 150) — the yardstick of experiments T1, T2, T7 and T9.
func Small() []Workload {
	return []Workload{
		{"gnp-120", mustG(gen.GNP(120, 0.05, 101))},
		{"udg-120", mustG(gen.UnitDisk(120, 0.16, 102))},
		{"grid-10x12", mustG(gen.Grid(10, 12))},
		{"tree-120", mustG(gen.RandomTree(120, 103))},
		{"star-100", mustG(gen.Star(100))},
		{"cliquechain-8x12", mustG(gen.CliqueChain(8, 12))},
	}
}

// Tiny returns workloads small enough for the exact branch-and-bound
// optimum (n ≲ 60) — the yardstick of experiments T3 and T6.
func Tiny() []Workload {
	return []Workload{
		{"udg-55", mustG(gen.UnitDisk(55, 0.25, 104))},
		{"gnp-50", mustG(gen.GNP(50, 0.12, 105))},
		{"grid-6x8", mustG(gen.Grid(6, 8))},
		{"cliquechain-4x8", mustG(gen.CliqueChain(4, 8))},
	}
}

// Medium returns workloads for the end-to-end and baseline experiments
// (T4, T5, T6, T8), judged against the Lemma 1 dual bound.
func Medium(quick bool) []Workload {
	if quick {
		return []Workload{
			{"udg-500", mustG(gen.UnitDisk(500, 0.08, 106))},
			{"gnp-500", mustG(gen.GNP(500, 0.012, 107))},
		}
	}
	return []Workload{
		{"udg-2000", mustG(gen.UnitDisk(2000, 0.04, 106))},
		{"gnp-2000", mustG(gen.GNP(2000, 0.003, 107))},
		{"grid-45x45", mustG(gen.Grid(45, 45))},
		{"ba-2000", mustG(gen.PrefAttach(2000, 3, 108))},
	}
}

// Large returns the large-n scenarios for the engine-scaling experiment
// (L1). These sizes were unreachable with the goroutine-per-vertex engine
// and exist to keep the round-driven scheduler honest: a full simulated
// (non-sequential) pipeline run must stay interactive at n = 10⁵–2·10⁵.
func Large(quick bool) []Workload {
	if quick {
		return []Workload{
			{"udg-20k", mustG(gen.UnitDisk(20000, 0.014, 109))},
			{"gnp-40k", mustG(gen.GNP(40000, 8.0/39999.0, 110))},
		}
	}
	return []Workload{
		{"udg-100k", mustG(gen.UnitDisk(100000, 0.0065, 109))},
		{"gnp-200k", mustG(gen.GNP(200000, 8.0/199999.0, 110))},
	}
}
