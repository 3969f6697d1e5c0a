package dyngraph_test

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/fastpath"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/rounding"
	"kwmds/internal/stats"
	"kwmds/internal/testsupport"
)

// This file is the differential churn harness: every mutation sequence is
// applied twice — through the dyngraph engine (Commit, then a Solve of the
// committed graph on persistent solvers, which repair their state from the
// previous epoch's and replay its LP stage) and through a test-only oracle
// that rebuilds a fresh graph.New from its own edge ledger and cold-solves
// it — and the outputs must agree bit for bit: the committed CSR against
// the from-scratch CSR, the incremental topology digest (a digest tree kept
// across the epochs) against a fresh digest of the rebuild, and the
// fractional vector, dominating set and join counters of the persistent
// solvers against the cold solve. graph.New
// sets no lineage, so the oracle always runs the full LP stage. The table
// spans the four workload families of the fastpath determinism tests ×
// three algorithms × both rounding variants × seeds, with the persistent
// solvers running at several worker counts; CI executes it under -race.

// oracle is the from-scratch referee: it mirrors every mutation on a plain
// edge ledger and rebuilds via graph.New, the constructor whose validation
// the whole repository trusts.
type oracle struct {
	n     int
	edges map[[2]int]bool
	costs map[int]float64
}

func newOracle(g *graph.Graph) *oracle {
	o := &oracle{n: g.N(), edges: map[[2]int]bool{}, costs: map[int]float64{}}
	for _, e := range g.Edges() {
		o.edges[e] = true
	}
	return o
}

func (o *oracle) key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (o *oracle) build(t *testing.T) *graph.Graph {
	t.Helper()
	edges := make([][2]int, 0, len(o.edges))
	for v := 0; v < o.n; v++ {
		for u := v + 1; u < o.n; u++ {
			if o.edges[[2]int{v, u}] {
				edges = append(edges, [2]int{v, u})
			}
		}
	}
	g, err := graph.New(o.n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (o *oracle) costVector() []float64 {
	costs := make([]float64, o.n)
	for v := range costs {
		costs[v] = 1
	}
	for v, c := range o.costs {
		costs[v] = c
	}
	return costs
}

// mutateEpoch drives one epoch's mutations into both the engine and the
// oracle. Epochs alternate between trickle batches (1–2 edge toggles, the
// regime where the solver repairs its state and replays the LP) and heavy
// batches
// (≈ m/4 toggles through ApplyEdgeDeltas, forcing the full-solve
// fallback), with occasional vertex additions and weight updates.
func mutateEpoch(t *testing.T, d *dyngraph.Dynamic, o *oracle, rng *rand.Rand, epoch int) {
	t.Helper()
	toggle := func(u, v int) {
		if u == v {
			return
		}
		key := o.key(u, v)
		if o.edges[key] {
			if err := d.RemoveEdge(u, v); err != nil {
				t.Fatalf("epoch %d RemoveEdge(%d,%d): %v", epoch, u, v, err)
			}
			delete(o.edges, key)
		} else {
			if err := d.AddEdge(u, v); err != nil {
				t.Fatalf("epoch %d AddEdge(%d,%d): %v", epoch, u, v, err)
			}
			o.edges[key] = true
		}
	}
	switch epoch % 4 {
	case 0, 2: // trickle: one or two interactive toggles
		for i := 0; i <= epoch%3; i++ {
			toggle(rng.IntN(o.n), rng.IntN(o.n))
		}
	case 1: // heavy batch through the bulk path
		var add, rem [][2]int32
		seen := map[[2]int]bool{}
		for i := 0; i < o.n/3; i++ {
			u, v := rng.IntN(o.n), rng.IntN(o.n)
			if u == v {
				continue
			}
			key := o.key(u, v)
			if seen[key] {
				continue
			}
			seen[key] = true
			if o.edges[key] {
				rem = append(rem, [2]int32{int32(u), int32(v)})
				delete(o.edges, key)
			} else {
				add = append(add, [2]int32{int32(v), int32(u)}) // either orientation
				o.edges[key] = true
			}
		}
		// Alternate between the normalized lex-sorted shape (the
		// mobility.EdgeDeltas contract — commits on the no-sort fast path)
		// and raw arbitrary-orientation batches (the generic path), so the
		// oracle pins both commit strategies.
		if (epoch/4)%2 == 0 {
			normalize := func(list [][2]int32) {
				for i, e := range list {
					if e[0] > e[1] {
						list[i] = [2]int32{e[1], e[0]}
					}
				}
				sort.Slice(list, func(i, j int) bool {
					return list[i][0] < list[j][0] || (list[i][0] == list[j][0] && list[i][1] < list[j][1])
				})
			}
			normalize(add)
			normalize(rem)
		}
		d.ApplyEdgeDeltas(add, rem)
	case 3: // growth: a new vertex wired into the graph, plus a weight bump
		id := d.AddVertex()
		if id != o.n {
			t.Fatalf("epoch %d: AddVertex id %d, want %d", epoch, id, o.n)
		}
		o.n++
		for i := 0; i < 2; i++ {
			toggle(id, rng.IntN(id))
		}
		w := 1 + float64(rng.IntN(8))
		v := rng.IntN(o.n)
		if err := d.SetWeight(v, w); err != nil {
			t.Fatalf("epoch %d SetWeight: %v", epoch, err)
		}
		o.costs[v] = w
	}
}

func assertSameCSR(t *testing.T, ctx string, got, want *graph.Graph) {
	t.Helper()
	gotOff, gotAdj := got.CSR()
	wantOff, wantAdj := want.CSR()
	if len(gotOff) != len(wantOff) || len(gotAdj) != len(wantAdj) {
		t.Fatalf("%s: CSR shape (%d,%d), want (%d,%d)", ctx, len(gotOff), len(gotAdj), len(wantOff), len(wantAdj))
	}
	for i := range wantOff {
		if gotOff[i] != wantOff[i] {
			t.Fatalf("%s: off[%d] = %d, want %d", ctx, i, gotOff[i], wantOff[i])
		}
	}
	for i := range wantAdj {
		if gotAdj[i] != wantAdj[i] {
			t.Fatalf("%s: adj[%d] = %d, want %d", ctx, i, gotAdj[i], wantAdj[i])
		}
	}
	if got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: MaxDegree %d, want %d", ctx, got.MaxDegree(), want.MaxDegree())
	}
}

func assertSameResult(t *testing.T, ctx string, got, want fastpath.Result) {
	t.Helper()
	testsupport.RequireBitIdenticalIn(t, ctx, got, want)
}

func churnWorkloads(t *testing.T) []struct {
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

// churnWorkerCounts mirrors the fastpath determinism matrix: inline,
// uneven chunking, wider than GOMAXPROCS, default.
var churnWorkerCounts = []int{1, 3, 0}

// TestDifferentialChurn fails unless some persistent solver replayed an
// LP stage: the trickle epochs exist to exercise that path.
func TestDifferentialChurn(t *testing.T) {
	const epochs = 8
	algs := []struct {
		name string
		alg  fastpath.Algorithm
	}{
		{"alg3", fastpath.Alg3},
		{"alg2", fastpath.Alg2},
		{"weighted", fastpath.AlgWeighted},
	}
	variants := []rounding.Variant{rounding.Ln, rounding.LnMinusLnLn}
	seeds := []int64{1, 9}

	var replayed atomic.Int64
	t.Cleanup(func() { // runs once the parallel subtests finish
		if !t.Failed() && replayed.Load() == 0 {
			t.Error("no epoch replayed its LP stage; the trickle epochs are not exercising the incremental path")
		}
	})
	for _, w := range churnWorkloads(t) {
		for _, a := range algs {
			for _, variant := range variants {
				for _, seed := range seeds {
					name := fmt.Sprintf("%s/%s/%v/seed%d", w.name, a.name, variant, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						d := dyngraph.New(w.g)
						o := newOracle(w.g)
						tree := graphio.NewDigestTree(w.g)
						rng := stats.NewRand(seed*1000 + int64(len(w.name)))
						solvers := make([]*fastpath.Solver, len(churnWorkerCounts))
						for i := range solvers {
							solvers[i] = fastpath.New()
						}
						for epoch := 0; epoch < epochs; epoch++ {
							mutateEpoch(t, d, o, rng, epoch)
							delta, err := d.Commit()
							if err != nil {
								t.Fatalf("epoch %d: %v", epoch, err)
							}
							fresh := o.build(t)
							ctx := fmt.Sprintf("%s epoch %d", name, epoch)
							assertSameCSR(t, ctx, delta.Next, fresh)
							root := tree.Root()
							if delta.Next != delta.Prev {
								root = tree.Update(delta.Next, delta.Touched)
							}
							if want := graphio.DigestRaw(fresh); root != want {
								t.Fatalf("%s: incremental digest %x, rebuild's %x", ctx, root, want)
							}

							opt := fastpath.Options{K: 2, Algorithm: a.alg, Seed: seed, Variant: variant}
							if a.alg == fastpath.AlgWeighted {
								opt.Costs = o.costVector()
							}
							cold, err := fastpath.New().Solve(fresh, opt)
							if err != nil {
								t.Fatalf("%s cold solve: %v", ctx, err)
							}
							testsupport.AssertDominatingSetPacked(t, ctx+" cold", fresh, cold.Set)
							testsupport.AssertFractionallyDominated(t, ctx+" cold", fresh, cold.X)
							for i, workers := range churnWorkerCounts {
								opt.Workers = workers
								got, err := solvers[i].Solve(delta.Next, opt)
								if err != nil {
									t.Fatalf("%s workers %d: %v", ctx, workers, err)
								}
								if solvers[i].LastLPReplayed() {
									replayed.Add(1)
								}
								assertSameResult(t, fmt.Sprintf("%s workers %d", ctx, workers), got, cold)
								testsupport.AssertDominatingSetPacked(t, ctx, delta.Next, got.Set)
							}
						}
					})
				}
			}
		}
	}
}

// TestTrickleReplayMatchesColdSolve pins both paths on the same epoch: a
// persistent solver that repairs its tables and replays the previous
// epoch's LP stage, and a cold solver of a lineage-free rebuild that runs
// the full stage, must produce the same bits. It complements
// TestDifferentialChurn by making the trickle regime explicit
// (single-edge epochs on a graph large enough that the repair threshold
// admits them).
func TestTrickleReplayMatchesColdSolve(t *testing.T) {
	g, err := gen.UnitDisk(600, 0.06, 17)
	if err != nil {
		t.Fatal(err)
	}
	d := dyngraph.New(g)
	o := newOracle(g)
	rng := stats.NewRand(5)
	warm := fastpath.New()
	opt := fastpath.Options{K: 3, Seed: 4}
	if _, err := warm.Solve(g, opt); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for epoch := 0; epoch < 12; epoch++ {
		u, v := rng.IntN(o.n), rng.IntN(o.n)
		if u == v {
			continue
		}
		key := o.key(u, v)
		if o.edges[key] {
			if err := d.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
			delete(o.edges, key)
		} else {
			if err := d.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			o.edges[key] = true
		}
		delta, err := d.Commit()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := fastpath.New().Solve(o.build(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.Solve(delta.Next, opt)
		if err != nil {
			t.Fatal(err)
		}
		if warm.LastLPReplayed() {
			replayed++
		}
		assertSameResult(t, fmt.Sprintf("trickle epoch %d", epoch), got, cold)
	}
	// The point of the trickle regime: the persistent solver must actually
	// have replayed (a single edge toggle on a 600-vertex UDG is far below
	// the fallback threshold).
	if replayed == 0 {
		t.Fatal("no epoch replayed its LP stage; the trickle regime is not exercising the incremental path")
	}
}
