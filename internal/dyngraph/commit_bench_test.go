package dyngraph_test

import (
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/mobility"
)

// BenchmarkCommitChurn measures a steady-state epoch commit at mobility
// churn scale (udg-10k, speed 0.01 — ≈ 40k link events/epoch): one
// persistent Dynamic absorbing the epoch delta forward and backward, so
// scratch buffers are warm exactly as in the churn driver's loop. Every
// commit allocates the new snapshot's arrays, as the server's does.
func BenchmarkCommitChurn(b *testing.B) {
	tr, err := mobility.RandomWalk(10000, 0.02, 0.01, 2, 7)
	if err != nil {
		b.Fatal(err)
	}
	add, rem := mobility.EdgeDeltas(tr.Graphs[0], tr.Graphs[1])
	d := dyngraph.New(tr.Graphs[0])
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
