package core

import (
	"fmt"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/rounding"
	"kwmds/internal/sim"
)

// This file pins the cross-engine determinism contract of the round-driven
// scheduler: for every workload, seed and worker-pool size, the simulated
// executions of Algorithm 2, Algorithm 3, the weighted variant and the
// rounding stage produce output bit-identical to the sequential references.
// Run with -race (CI does) — it doubles as the engine's data-race probe.

// determinismWorkloads spans four graph families with different degree
// profiles (uniform random, geometric, regular grid, tree).
func determinismWorkloads(t *testing.T) []struct {
	name string
	g    *graph.Graph
} {
	t.Helper()
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-150", mk(gen.GNP(150, 0.05, 301))},
		{"udg-150", mk(gen.UnitDisk(150, 0.15, 302))},
		{"grid-12x12", mk(gen.Grid(12, 12))},
		{"tree-150", mk(gen.RandomTree(150, 303))},
	}
}

// workerCounts exercises the sequential edge case (one worker), an uneven
// split, and the default pool.
var workerCounts = []int{1, 3, 0}

func sameX(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: |X| = %d, want %d", ctx, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: x[%d] = %v, want %v (must be bit-identical)", ctx, v, got[v], want[v])
		}
	}
}

func TestCrossEngineDeterminismLPStage(t *testing.T) {
	for _, w := range determinismWorkloads(t) {
		for _, k := range []int{1, 2, 3} {
			ref2, err := ReferenceKnownDelta(w.g, k)
			if err != nil {
				t.Fatal(err)
			}
			ref3, err := Reference(w.g, k)
			if err != nil {
				t.Fatal(err)
			}
			costs := make([]float64, w.g.N())
			for v := range costs {
				costs[v] = 1 + float64(v%7)
			}
			refW, err := ReferenceWeighted(w.g, k, costs)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				opts := []sim.Option{sim.WithWorkers(workers)}
				res2, err := FractionalKnownDelta(w.g, k, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameX(t, w.name+" alg2", res2.X, ref2.X)
				res3, err := Fractional(w.g, k, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameX(t, w.name+" alg3", res3.X, ref3.X)
				resW, err := FractionalWeighted(w.g, k, costs, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameX(t, w.name+" weighted", resW.X, refW.X)
			}
		}
	}
}

func TestCrossEngineDeterminismRounding(t *testing.T) {
	for _, w := range determinismWorkloads(t) {
		res3, err := Fractional(w.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7, 42} {
			for _, variant := range []rounding.Variant{rounding.Ln, rounding.LnMinusLnLn} {
				opts := rounding.Options{Seed: seed, Variant: variant}
				ref, err := rounding.Reference(w.g, res3.X, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range workerCounts {
					got, err := rounding.Round(w.g, res3.X, opts, sim.WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					if got.Size != ref.Size || got.JoinedRandom != ref.JoinedRandom || got.JoinedFixup != ref.JoinedFixup {
						t.Fatalf("%s seed %d variant %v workers %d: size/join (%d,%d,%d) vs reference (%d,%d,%d)",
							w.name, seed, variant, workers,
							got.Size, got.JoinedRandom, got.JoinedFixup,
							ref.Size, ref.JoinedRandom, ref.JoinedFixup)
					}
					for v := range ref.InDS {
						if got.InDS[v] != ref.InDS[v] {
							t.Fatalf("%s seed %d variant %v workers %d: InDS[%d] = %v, want %v",
								w.name, seed, variant, workers, v, got.InDS[v], ref.InDS[v])
						}
					}
				}
			}
		}
	}
}

// TestInstrumentLeavesOutputUnchanged pins that the proof bookkeeping is
// observation only: both references, run with and without Instrument, give
// the same X bits and round to the same dominating set.
func TestInstrumentLeavesOutputUnchanged(t *testing.T) {
	refs := []struct {
		name string
		run  func(*graph.Graph, int, ...RefOption) (*RefResult, error)
	}{
		{"Reference", Reference},
		{"ReferenceKnownDelta", ReferenceKnownDelta},
	}
	for _, w := range determinismWorkloads(t) {
		for _, k := range []int{1, 2, 3} {
			for _, ref := range refs {
				ctx := fmt.Sprintf("%s %s k=%d", w.name, ref.name, k)
				plain, err := ref.run(w.g, k)
				if err != nil {
					t.Fatal(err)
				}
				instr, err := ref.run(w.g, k, Instrument())
				if err != nil {
					t.Fatal(err)
				}
				sameX(t, ctx, instr.X, plain.X)
				want, err := rounding.Reference(w.g, plain.X, rounding.Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				got, err := rounding.Reference(w.g, instr.X, rounding.Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got.Size != want.Size {
					t.Fatalf("%s: instrumented |DS| = %d, want %d", ctx, got.Size, want.Size)
				}
				for v := range want.InDS {
					if got.InDS[v] != want.InDS[v] {
						t.Fatalf("%s: instrumented InDS[%d] = %v, want %v", ctx, v, got.InDS[v], want.InDS[v])
					}
				}
			}
		}
	}
}
