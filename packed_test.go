package kwmds

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kwmds/internal/graph"
)

// TestDominatingSetPackedMatchesDominatingSet pins the packed entry point
// to DominatingSet: for kw, kw2 and weighted runs, both rounding variants
// and both engines, the set (as words, graph.PackSet's layout, so no bit
// past the last vertex) and every scalar agree, floats bit for bit, and
// the two engines' packed answers agree but for the simulation statistics.
// The graph's 300 vertices leave the last word partial.
func TestDominatingSetPackedMatchesDominatingSet(t *testing.T) {
	g, err := UnitDisk(300, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.N())
	for v := range weights {
		weights[v] = 1 + float64(v%7)/3
	}
	for _, algo := range []struct {
		name string
		opts Options
	}{
		{"kw", Options{K: 3}},
		{"kw2", Options{K: 3, KnownDelta: true}},
		{"weighted", Options{K: 3, Weights: weights}},
	} {
		for _, variant := range []RoundingVariant{VariantLn, VariantLnMinusLnLn} {
			for _, seed := range []int64{1, 5} {
				var byEngine []*PackedResult
				for _, sequential := range []bool{true, false} {
					opts := algo.opts
					opts.Variant, opts.Sequential, opts.Seed = variant, sequential, seed
					ctx := fmt.Sprintf("%s/%v/sequential %v/seed %d", algo.name, variant, sequential, seed)
					want, err := DominatingSet(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := DominatingSetPacked(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Set, graph.PackSet(want.InDS)) {
						t.Fatalf("%s: the packed set differs from PackSet(InDS)", ctx)
					}
					if got.Size != want.Size || got.K != want.K ||
						got.JoinedRandom != want.JoinedRandom || got.JoinedFixup != want.JoinedFixup ||
						got.Rounds != want.Rounds || got.Messages != want.Messages || got.Bits != want.Bits {
						t.Fatalf("%s: packed %+v, DominatingSet size %d k %d joins (%d, %d) rounds %d messages %d bits %d",
							ctx, *got, want.Size, want.K, want.JoinedRandom, want.JoinedFixup, want.Rounds, want.Messages, want.Bits)
					}
					if math.Float64bits(got.LPObjective) != math.Float64bits(want.LPObjective) ||
						math.Float64bits(got.WeightedCost) != math.Float64bits(want.WeightedCost) {
						t.Fatalf("%s: LP objective %v, weighted cost %v; DominatingSet %v, %v",
							ctx, got.LPObjective, got.WeightedCost, want.LPObjective, want.WeightedCost)
					}
					byEngine = append(byEngine, got)
				}
				// The engines differ only in the simulation statistics.
				fast, sim := byEngine[0], byEngine[1]
				if !slices.Equal(fast.Set, sim.Set) || math.Float64bits(fast.WeightedCost) != math.Float64bits(sim.WeightedCost) ||
					math.Float64bits(fast.LPObjective) != math.Float64bits(sim.LPObjective) {
					t.Fatalf("%s/%v/seed %d: the fast and sim engines disagree", algo.name, variant, seed)
				}
			}
		}
	}
	if _, err := DominatingSetPacked(g, Options{K: -2, Sequential: true}); err == nil {
		t.Error("K = -2 accepted")
	}
}
