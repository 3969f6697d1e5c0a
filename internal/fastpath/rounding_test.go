package fastpath

import (
	"fmt"
	"math"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/rounding"
)

// TestRoundingKernelMatchesReference pins the Algorithm 1 kernel — the
// flip as a comparison of the draw against x·Scale, the fix-up as a walk
// over the unflipped bits — to the sequential reference, for both
// variants, 32 seeds and every worker count. The graphs cover serving
// scale (serve-cold's udg-10k), a last word holding fewer than 64
// vertices, isolated vertices (δ⁽²⁾ = 0, so Scale is 0, p = 0 for any x,
// and only the fix-up can join them) and a dense graph where p ≥ 1. Each
// graph is rounded over its LP solution, through Solve's memo path too,
// and over a synthetic x that puts every vertex class at p = 0, a
// subnormal p, p ∈ (0, 1), p ≥ 1 and p = +Inf.
func TestRoundingKernelMatchesReference(t *testing.T) {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Every fifth vertex of the isolated workload has no edge: a 240-vertex
	// G(n, p) relabeled to skip the ids 4, 9, 14, ….
	sparse := mk(gen.GNP(240, 0.02, 17))
	var isoEdges [][2]int
	for _, e := range sparse.Edges() {
		isoEdges = append(isoEdges, [2]int{e[0] + e[0]/4, e[1] + e[1]/4})
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"udg-10k", mk(gen.UnitDisk(10000, 0.02, 1))},
		{"udg-1037", mk(gen.UnitDisk(1037, 0.06, 5))},
		{"isolated-300", mk(graph.New(300, isoEdges))},
		{"gnp-dense-130", mk(gen.GNP(130, 0.5, 9))},
	}
	synthetic := []float64{0, 5e-324, 0.01, 0.3, 1, math.MaxFloat64}
	const k = 3
	s := New()
	for _, w := range graphs {
		n := w.g.N()
		if w.name == "isolated-300" && w.g.Degree(299) != 0 {
			t.Fatalf("%s: vertex 299 has degree %d, want isolated", w.name, w.g.Degree(299))
		}
		lpX, err := New().Fractional(w.g, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		synX := make([]float64, n)
		for v := range synX {
			synX[v] = synthetic[v%len(synthetic)]
		}
		for _, in := range []struct {
			name string
			x    []float64
		}{{"lp", lpX}, {"synthetic", synX}} {
			for _, variant := range []rounding.Variant{rounding.Ln, rounding.LnMinusLnLn} {
				for seed := int64(0); seed < 32; seed++ {
					want, err := rounding.Reference(w.g, in.x, rounding.Options{Seed: seed, Variant: variant})
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range workerCounts {
						ctx := fmt.Sprintf("%s/%s/%v/seed %d/workers %d", w.name, in.name, variant, seed, workers)
						opt := Options{K: k, Seed: seed, Variant: variant, Workers: workers}
						got, err := s.Round(w.g, in.x, opt)
						if err != nil {
							t.Fatal(err)
						}
						sameRounding(t, ctx+"/Round", got, want)
						if in.name == "lp" {
							got, err := s.Solve(w.g, opt)
							if err != nil {
								t.Fatal(err)
							}
							sameRounding(t, ctx+"/Solve", got, want)
						}
					}
				}
			}
		}
	}
}

func sameRounding(t *testing.T, ctx string, got Result, want *rounding.Result) {
	t.Helper()
	if got.JoinedRandom != want.JoinedRandom || got.JoinedFixup != want.JoinedFixup || got.Size != want.Size {
		t.Fatalf("%s: joined (random %d, fix-up %d, size %d), want (%d, %d, %d)", ctx,
			got.JoinedRandom, got.JoinedFixup, got.Size, want.JoinedRandom, want.JoinedFixup, want.Size)
	}
	if len(got.InDS) != len(want.InDS) {
		t.Fatalf("%s: |InDS| = %d, want %d", ctx, len(got.InDS), len(want.InDS))
	}
	for v := range want.InDS {
		if got.InDS[v] != want.InDS[v] {
			t.Fatalf("%s: InDS[%d] = %v, want %v", ctx, v, got.InDS[v], want.InDS[v])
		}
	}
}
