package dyngraph_test

import (
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/gen"
	"kwmds/internal/mobility"
	"kwmds/internal/stats"
)

// BenchmarkCommitChurn measures a steady-state epoch commit at mobility
// churn scale (udg-10k, speed 0.01 — ≈ 40k link events/epoch): one
// persistent Dynamic absorbing the epoch delta forward and backward, so
// scratch buffers are warm exactly as in the churn driver's loop. The
// batch touches nearly every 64-vertex block, so every commit is a
// compaction into a fresh flat snapshot.
func BenchmarkCommitChurn(b *testing.B) {
	tr, err := mobility.RandomWalk(10000, 0.02, 0.01, 2, 7)
	if err != nil {
		b.Fatal(err)
	}
	add, rem := mobility.EdgeDeltas(tr.Graphs[0], tr.Graphs[1])
	d := dyngraph.New(tr.Graphs[0])
	// A first commit sizes the Dynamic's per-vertex scratch; the next undoes it.
	for _, batch := range [][2][][2]int32{{add, rem}, {rem, add}} {
		d.ApplyEdgeDeltas(batch[0], batch[1])
		if _, err := d.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, r := add, rem
		if i%2 == 1 {
			a, r = rem, add // undo: back to the previous snapshot
		}
		d.ApplyEdgeDeltas(a, r)
		if _, err := d.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitToggle measures serve-churn's mutate batch: each epoch
// toggles the edges of 4 distinct pairs drawn from 32 fixed vertex pairs
// through AddEdge/RemoveEdge and commits, on unit-disk graphs of
// serve-churn's mean degree (udg-10k is serve-churn's own graph). The
// batch names 8 vertices, so a commit writes at most 8 pages over a copy
// of the n/64-entry page table: its cost follows the batch, apart from
// that table, and no commit compacts (the 64 pair vertices fill at most
// 64 blocks, under half of either graph's).
func BenchmarkCommitToggle(b *testing.B) {
	for _, tc := range []struct {
		name   string
		n      int
		radius float64
	}{
		{"udg-10k", 10000, 0.02},
		{"udg-100k", 100000, 0.0063},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := gen.UnitDisk(tc.n, tc.radius, 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRand(7)
			var pairs [][2]int
			seen := map[[2]int]bool{}
			for len(pairs) < 32 {
				u, v := rng.IntN(tc.n), rng.IntN(tc.n)
				if u == v || seen[[2]int{min(u, v), max(u, v)}] {
					continue
				}
				seen[[2]int{min(u, v), max(u, v)}] = true
				pairs = append(pairs, [2]int{u, v})
			}
			d := dyngraph.New(g)
			// A first commit sizes the Dynamic's per-vertex scratch.
			u, v := pairs[0][0], pairs[0][1]
			if err := d.AddEdge(u, v); err != nil {
				if err := d.RemoveEdge(u, v); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := d.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var picked [4]int
				for j := 0; j < len(picked); j++ {
					picked[j] = rng.IntN(len(pairs))
					for k := 0; k < j; k++ {
						if picked[k] == picked[j] {
							j-- // draw again
							break
						}
					}
				}
				g := d.Graph()
				for _, p := range picked {
					u, v := pairs[p][0], pairs[p][1]
					var err error
					if g.HasEdge(u, v) {
						err = d.RemoveEdge(u, v)
					} else {
						err = d.AddEdge(u, v)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if _, err := d.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
