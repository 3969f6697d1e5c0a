package dyngraph_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/fastpath"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/rounding"
	"kwmds/internal/testsupport"
)

// FuzzMutationSequence is the dynamic-graph differential fuzzer: a random
// base graph is mutated by an arbitrary interleaving of edge toggles,
// weight updates, vertex additions and commit checkpoints decoded from the
// fuzz input, and at every checkpoint a persistent solver's Solve of the
// committed graph — which repairs its state from the previous checkpoint's
// and may replay its LP stage — is compared bit for bit against a cold
// solve of a from-scratch graph.New rebuild — for the default and the
// weighted algorithm, across both commit paths (interactive ops and
// checkpoint-sized batches). The checked-in corpus under
// testdata/fuzz/FuzzMutationSequence encodes real mobility replay traces
// (consecutive unit-disk snapshots diffed into link events), so plain
// `go test` already replays representative churn, and fails unless some
// checkpoint of that corpus replayed;
// `go test -fuzz=FuzzMutationSequence ./internal/dyngraph` explores beyond.
//
// The base graph has 4 + nRaw%28 vertices, one block of the paged layout,
// except that nRaw ≥ 224 selects four blocks (256 vertices, sparse), where
// a checkpoint that touches one or two blocks commits pages and one that
// would leave more than half of them paged compacts. The corpus must reach
// both, as well as the replay.
//
// Op encoding: 3 bytes each. byte0%8 selects the op — 0-4 toggle the edge
// (byte1%n, byte2%n) (adds if absent, removes if present; the bias keeps
// sequences edge-heavy like real churn), 5 sets weight 1+byte2%9 on vertex
// byte1%n, 6 adds a vertex, 7 commits and differentially checks. A final
// commit+check always runs.
func FuzzMutationSequence(f *testing.F) {
	const added = 5 // the f.Add seeds
	f.Add(int64(1), uint8(20), uint8(25), []byte{0, 1, 2, 7, 0, 0, 3, 1, 2, 4})
	f.Add(int64(7), uint8(9), uint8(60), []byte{6, 0, 0, 0, 9, 1, 7, 0, 0, 5, 2, 3})
	f.Add(int64(-3), uint8(31), uint8(10), []byte{2, 5, 6, 2, 6, 5, 7, 1, 1})
	// Four blocks: page block 0, then 1; block 2 crosses the share; page
	// block 3 over the compaction; blocks 0 and 3 together cross it again;
	// a toggle and a weight page block 0; block 1 twice; then growth.
	f.Add(int64(5), uint8(224), uint8(40), []byte{
		0, 1, 2, 7, 0, 0, 1, 70, 80, 7, 0, 0, 2, 130, 140, 7, 0, 0,
		3, 200, 210, 7, 0, 0, 4, 5, 250, 7, 0, 0, 0, 9, 12, 5, 9, 3, 7, 0, 0,
		0, 100, 101, 0, 102, 103, 7, 0, 0, 6, 0, 0, 0, 3, 255, 7, 0, 0})
	// Denser, k = 3: every checkpoint touches two blocks.
	f.Add(int64(11), uint8(250), uint8(80), []byte{
		0, 10, 70, 7, 0, 0, 1, 11, 71, 7, 0, 0, 2, 140, 250, 7, 0, 0,
		3, 141, 251, 4, 12, 13, 7, 0, 0, 0, 60, 64, 7, 0, 0, 1, 190, 193, 7, 0, 0})
	files, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzMutationSequence"))
	if err != nil {
		f.Fatal(err)
	}
	// runs and replays count the inputs run in this process and the
	// checkpoints that replayed; both are read after Fuzz returns.
	// paged and compacted count the checkpoints that committed pages and
	// those that compacted a paged parent.
	runs, replays, paged, compacted := 0, 0, 0, 0
	f.Fuzz(func(t *testing.T, gseed int64, nRaw, pRaw uint8, ops []byte) {
		runs++
		n := 4 + int(nRaw)%28      // 4..31 vertices
		p := float64(pRaw%81) / 80 // density 0..1
		if nRaw >= 224 {
			n, p = 4*graph.BlockSize, p/32
		}
		k := 1 + int(pRaw)%3
		g0, err := gen.GNP(n, p, gseed)
		if err != nil {
			t.Fatal(err)
		}
		d := dyngraph.New(g0)
		edges := map[[2]int]bool{}
		for _, e := range g0.Edges() {
			edges[e] = true
		}
		costs := map[int]float64{}
		key := func(u, v int) [2]int {
			if u > v {
				u, v = v, u
			}
			return [2]int{u, v}
		}

		solvers := map[fastpath.Algorithm]*fastpath.Solver{
			fastpath.Alg3:        fastpath.New(),
			fastpath.AlgWeighted: fastpath.New(),
		}
		seed := gseed ^ int64(nRaw)
		check := func(step int) {
			delta, err := d.Commit()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			rebuilt := make([][2]int, 0, len(edges))
			for v := 0; v < n; v++ {
				for u := v + 1; u < n; u++ {
					if edges[[2]int{v, u}] {
						rebuilt = append(rebuilt, [2]int{v, u})
					}
				}
			}
			fresh, err := graph.New(n, rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			if delta.Next.PagedBlocks() > 0 {
				paged++
			} else if delta.Prev.PagedBlocks() > 0 && delta.Next != delta.Prev {
				compacted++
			}
			for v := range n {
				if !slices.Equal(delta.Next.Neighbors(v), fresh.Neighbors(v)) {
					t.Fatalf("step %d: vertex %d has %v, want %v", step, v, delta.Next.Neighbors(v), fresh.Neighbors(v))
				}
			}
			cvec := make([]float64, n)
			for v := range cvec {
				cvec[v] = 1
			}
			for v, c := range costs {
				cvec[v] = c
			}
			for alg, s := range solvers {
				opt := fastpath.Options{K: k, Algorithm: alg, Seed: seed, Variant: rounding.Variant(int(pRaw) % 2)}
				if alg == fastpath.AlgWeighted {
					opt.Costs = cvec
				}
				cold, err := fastpath.New().Solve(fresh, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Solve(delta.Next, opt)
				if err != nil {
					t.Fatal(err)
				}
				if s.LastLPReplayed() {
					replays++
				}
				for v := range cold.X {
					if got.X[v] != cold.X[v] {
						t.Fatalf("step %d alg %d: x[%d] = %v, want %v", step, alg, v, got.X[v], cold.X[v])
					}
				}
				if got.Size != cold.Size || got.JoinedRandom != cold.JoinedRandom || got.JoinedFixup != cold.JoinedFixup {
					t.Fatalf("step %d alg %d: (%d,%d,%d), want (%d,%d,%d)", step, alg,
						got.Size, got.JoinedRandom, got.JoinedFixup, cold.Size, cold.JoinedRandom, cold.JoinedFixup)
				}
				if !slices.Equal(got.Set, cold.Set) {
					t.Fatalf("step %d alg %d: the sets differ", step, alg)
				}
				testsupport.AssertDominatingSetPacked(t, "fuzz churn", delta.Next, got.Set)
			}
			// After the solves, which read a paged snapshot through its
			// pages: the flat copy CSR builds.
			gotOff, gotAdj := delta.Next.CSR()
			wantOff, wantAdj := fresh.CSR()
			if len(gotOff) != len(wantOff) || len(gotAdj) != len(wantAdj) {
				t.Fatalf("step %d: CSR shape (%d,%d) vs fresh (%d,%d)", step, len(gotOff), len(gotAdj), len(wantOff), len(wantAdj))
			}
			for i := range wantOff {
				if gotOff[i] != wantOff[i] {
					t.Fatalf("step %d: off[%d] = %d, want %d", step, i, gotOff[i], wantOff[i])
				}
			}
			for i := range wantAdj {
				if gotAdj[i] != wantAdj[i] {
					t.Fatalf("step %d: adj[%d] = %d, want %d", step, i, gotAdj[i], wantAdj[i])
				}
			}
		}

		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			switch ops[i] % 8 {
			case 5:
				if err := d.SetWeight(int(ops[i+1])%n, 1+float64(ops[i+2]%9)); err != nil {
					t.Fatal(err)
				}
				costs[int(ops[i+1])%n] = 1 + float64(ops[i+2]%9)
			case 6:
				if d.AddVertex() != n {
					t.Fatal("dense vertex ids violated")
				}
				n++
			case 7:
				check(i)
			default:
				u, v := int(ops[i+1])%n, int(ops[i+2])%n
				if u == v {
					continue
				}
				if edges[key(u, v)] {
					if err := d.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
					delete(edges, key(u, v))
				} else {
					if err := d.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
					edges[key(u, v)] = true
				}
			}
		}
		check(len(ops))
	})
	// A plain `go test` runs every seed-corpus input in this process; a
	// -run filter, or fuzzing (whose inputs run in worker processes),
	// does not, and then there is nothing to assert.
	if runs == added+len(files) && !f.Failed() {
		if replays == 0 {
			f.Fatal("no checkpoint of the seed corpus replayed its LP stage; the corpus is not exercising the incremental path")
		}
		if paged == 0 || compacted == 0 {
			f.Fatalf("the seed corpus committed %d paged checkpoints and %d compactions of a paged parent; want both", paged, compacted)
		}
	}
}
