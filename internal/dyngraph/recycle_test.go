package dyngraph_test

import (
	"fmt"
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/fastpath"
	"kwmds/internal/gen"
	"kwmds/internal/stats"
)

// TestRecycledEpochSolvesLikeFresh pins a solver's per-graph state — the
// δ⁽¹⁾/δ⁽²⁾ tables, the LP memo and its trajectory — to the graph rather
// than to its arrays. Recycle hands a retired epoch's arrays to the next
// Commit, so here epoch 3 is built in epoch 1's storage with the same n
// and m but a different edge removed. A solver that solved epoch 1 must
// treat epoch 3 as the new graph it is, and a second one must solve epoch 2
// — derived from epoch 1 — incrementally without reading epoch 1's arrays,
// which by then hold epoch 3: every answer bit-identical to a fresh
// solver's, and the Algorithm 3 runs of epoch 2 replayed.
func TestRecycledEpochSolvesLikeFresh(t *testing.T) {
	algs := []fastpath.Algorithm{fastpath.Alg3, fastpath.Alg2, fastpath.AlgWeighted}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, err := gen.UnitDisk(120, 0.16, seed)
			if err != nil {
				t.Fatal(err)
			}
			// Epoch 3 removes an edge at a maximum-degree vertex, so its
			// δ⁽²⁾ differs from epoch 1's; epoch 1 removes an edge elsewhere.
			rng := stats.NewRand(seed)
			hub := 0
			for v := 1; v < g.N(); v++ {
				if g.Degree(v) > g.Degree(hub) {
					hub = v
				}
			}
			nbrs := g.Neighbors(hub)
			e3 := [2]int{hub, int(nbrs[rng.IntN(len(nbrs))])}
			var others [][2]int
			for _, e := range g.Edges() {
				if e[0] != e3[0] && e[0] != e3[1] && e[1] != e3[0] && e[1] != e3[1] {
					others = append(others, e)
				}
			}
			e1 := others[rng.IntN(len(others))]

			d := dyngraph.New(g)
			commit := func(what string, mutate func() error) *dyngraph.Delta {
				t.Helper()
				if err := mutate(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				delta, err := d.Commit()
				if err != nil {
					t.Fatalf("%s: commit: %v", what, err)
				}
				return delta
			}
			epoch1 := commit("epoch 1", func() error { return d.RemoveEdge(e1[0], e1[1]) }).Next
			costs := make([]float64, g.N())
			for v := range costs {
				costs[v] = 1 + float64((v*7+int(seed))%5)
			}
			opt := fastpath.Options{K: 2 + int(seed%3), Algorithm: algs[seed%3], Seed: seed, Workers: 1}
			if opt.Algorithm == fastpath.AlgWeighted {
				opt.Costs = costs
			}
			s, s2 := fastpath.New(), fastpath.New()
			for _, solver := range []*fastpath.Solver{s, s2} {
				if _, err := solver.Solve(epoch1, opt); err != nil {
					t.Fatal(err)
				}
			}

			epoch2 := commit("epoch 2", func() error { return d.AddEdge(e1[0], e1[1]) }).Next
			d.Recycle(epoch1)
			epoch3 := commit("epoch 3", func() error { return d.RemoveEdge(e3[0], e3[1]) }).Next
			off1, _ := epoch1.CSR()
			off3, _ := epoch3.CSR()
			if &off1[0] != &off3[0] || epoch3.M() != epoch1.M() {
				t.Fatal("epoch 3 was not built in epoch 1's recycled arrays with the same shape")
			}

			opt.Seed++ // a repeated LP configuration: the memo must still miss
			got, err := s.Solve(epoch3, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fastpath.New().Solve(epoch3, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "recycled epoch 3", got, want)

			got, err = s2.Solve(epoch2, opt)
			if err != nil {
				t.Fatal(err)
			}
			if replayed := s2.LastLPReplayed(); replayed != (opt.Algorithm == fastpath.Alg3) {
				t.Fatalf("epoch 2 replayed = %v for algorithm %d", replayed, opt.Algorithm)
			}
			want, err = fastpath.New().Solve(epoch2, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "epoch 2 over a recycled parent", got, want)
		})
	}
}
