package dyngraph

import (
	"strings"
	"testing"

	"kwmds/internal/graph"
)

func mustCommit(t *testing.T, d *Dynamic) *Delta {
	t.Helper()
	delta, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return delta
}

func edgesOf(g *graph.Graph) map[[2]int]bool {
	m := map[[2]int]bool{}
	for _, e := range g.Edges() {
		m[e] = true
	}
	return m
}

func TestCommitMatchesNewFromScratch(t *testing.T) {
	g := graph.MustNew(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	d := New(g)
	for _, op := range []func() error{
		func() error { return d.AddEdge(0, 3) },
		func() error { return d.RemoveEdge(1, 2) },
		func() error { return d.AddEdge(2, 5) },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	v := d.AddVertex()
	if v != 6 {
		t.Fatalf("AddVertex id = %d, want 6", v)
	}
	if err := d.AddEdge(v, 0); err != nil {
		t.Fatal(err)
	}
	delta := mustCommit(t, d)

	want := graph.MustNew(7, [][2]int{{0, 1}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {0, 3}, {2, 5}, {6, 0}})
	gotOff, gotAdj := d.Graph().CSR()
	wantOff, wantAdj := want.CSR()
	for i := range wantOff {
		if gotOff[i] != wantOff[i] {
			t.Fatalf("off[%d] = %d, want %d", i, gotOff[i], wantOff[i])
		}
	}
	for i := range wantAdj {
		if gotAdj[i] != wantAdj[i] {
			t.Fatalf("adj[%d] = %d, want %d", i, gotAdj[i], wantAdj[i])
		}
	}
	if d.Graph().MaxDegree() != want.MaxDegree() {
		t.Fatalf("MaxDegree = %d, want %d", d.Graph().MaxDegree(), want.MaxDegree())
	}
	if delta.Epoch != 1 || !delta.Grew || delta.Prev != g || delta.Next != d.Graph() {
		t.Fatalf("delta = %+v", delta)
	}
	// Touched: endpoints of changed edges plus the new vertex.
	wantTouched := []int32{0, 1, 2, 3, 5, 6}
	if len(delta.Touched) != len(wantTouched) {
		t.Fatalf("Touched = %v, want %v", delta.Touched, wantTouched)
	}
	for i, v := range wantTouched {
		if delta.Touched[i] != v {
			t.Fatalf("Touched = %v, want %v", delta.Touched, wantTouched)
		}
	}
	// The original snapshot is untouched.
	if g.N() != 6 || g.M() != 6 || !g.HasEdge(1, 2) {
		t.Fatal("committing mutated the previous snapshot")
	}
}

func TestMutationValidation(t *testing.T) {
	base := graph.MustNew(4, [][2]int{{0, 1}, {1, 2}})
	cases := []struct {
		name string
		run  func(d *Dynamic) error
		want string
	}{
		{"self-loop add", func(d *Dynamic) error { return d.AddEdge(2, 2) }, "self-loop"},
		{"out-of-range add", func(d *Dynamic) error { return d.AddEdge(0, 4) }, "out of range"},
		{"negative add", func(d *Dynamic) error { return d.AddEdge(-1, 2) }, "out of range"},
		{"duplicate add", func(d *Dynamic) error { return d.AddEdge(1, 0) }, "duplicate edge"},
		{"pending duplicate add", func(d *Dynamic) error {
			if err := d.AddEdge(0, 2); err != nil {
				return err
			}
			return d.AddEdge(2, 0)
		}, "duplicate edge"},
		{"remove absent", func(d *Dynamic) error { return d.RemoveEdge(0, 3) }, "no edge"},
		{"remove removed", func(d *Dynamic) error {
			if err := d.RemoveEdge(0, 1); err != nil {
				return err
			}
			return d.RemoveEdge(1, 0)
		}, "no edge"},
		{"weight out of range", func(d *Dynamic) error { return d.SetWeight(5, 2) }, "out of range"},
		{"weight below one", func(d *Dynamic) error { return d.SetWeight(1, 0.5) }, "outside [1, ∞)"},
		{"weight nan", func(d *Dynamic) error { return d.SetWeight(1, nan()) }, "outside [1, ∞)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(New(base))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func nan() float64 { var z float64; return z / z }

func TestAddRemoveCancelWithinBatch(t *testing.T) {
	d := New(graph.MustNew(3, [][2]int{{0, 1}}))
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if add, rem, w, grew := d.NormalizedPending(); len(add)+len(rem)+len(w)+grew != 0 {
		t.Fatalf("pending after cancelling ops: add %v rem %v weights %v grew %d", add, rem, w, grew)
	}
	delta := mustCommit(t, d)
	if len(delta.Touched) != 0 || d.Graph().M() != 1 {
		t.Fatalf("cancelled batch changed the graph: touched %v m=%d", delta.Touched, d.Graph().M())
	}
}

func TestBatchDeltasValidatedAtCommit(t *testing.T) {
	base := graph.MustNew(4, [][2]int{{0, 1}, {1, 2}})
	t.Run("duplicate insertion", func(t *testing.T) {
		d := New(base)
		d.ApplyEdgeDeltas([][2]int32{{0, 2}, {2, 0}}, nil)
		if _, err := d.Commit(); err == nil || !strings.Contains(err.Error(), "duplicate insertion") {
			t.Fatalf("err = %v", err)
		}
		if d.Graph() != base || d.Epoch() != 0 {
			t.Fatal("failed commit changed the committed state")
		}
		d.Discard()
		if add, rem, w, grew := d.NormalizedPending(); len(add)+len(rem)+len(w)+grew != 0 {
			t.Fatalf("Discard left pending ops: add %v rem %v weights %v grew %d", add, rem, w, grew)
		}
	})
	t.Run("insert existing", func(t *testing.T) {
		d := New(base)
		d.ApplyEdgeDeltas([][2]int32{{2, 1}}, nil)
		if _, err := d.Commit(); err == nil || !strings.Contains(err.Error(), "duplicate insertion") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("remove absent", func(t *testing.T) {
		d := New(base)
		d.ApplyEdgeDeltas(nil, [][2]int32{{0, 3}})
		if _, err := d.Commit(); err == nil || !strings.Contains(err.Error(), "removal of absent edge") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("valid batch", func(t *testing.T) {
		d := New(base)
		d.ApplyEdgeDeltas([][2]int32{{0, 2}, {3, 0}}, [][2]int32{{1, 0}})
		mustCommit(t, d)
		want := edgesOf(graph.MustNew(4, [][2]int{{1, 2}, {0, 2}, {0, 3}}))
		got := edgesOf(d.Graph())
		if len(got) != len(want) {
			t.Fatalf("edges = %v, want %v", got, want)
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("missing edge %v", e)
			}
		}
	})
}

func TestWeights(t *testing.T) {
	d := New(graph.MustNew(3, [][2]int{{0, 1}}))
	if d.Costs() != nil {
		t.Fatal("costs set before any weight update")
	}
	if err := d.SetWeight(1, 4.5); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d)
	c1 := d.Costs()
	if len(c1) != 3 || c1[0] != 1 || c1[1] != 4.5 || c1[2] != 1 {
		t.Fatalf("costs = %v", c1)
	}
	// New vertices default to weight 1; earlier cost vectors are never
	// mutated by later commits.
	d.AddVertex()
	if err := d.SetWeight(0, 2); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d)
	c2 := d.Costs()
	if len(c2) != 4 || c2[0] != 2 || c2[1] != 4.5 || c2[3] != 1 {
		t.Fatalf("costs = %v", c2)
	}
	if c1[0] != 1 {
		t.Fatal("commit mutated a previously returned cost vector")
	}
}

func TestEmptyStartAndEpochs(t *testing.T) {
	d := New(nil)
	if d.N() != 0 || d.Epoch() != 0 {
		t.Fatalf("zero start: n=%d epoch=%d", d.N(), d.Epoch())
	}
	a, b := d.AddVertex(), d.AddVertex()
	if err := d.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	delta := mustCommit(t, d)
	if delta.Epoch != 1 || d.Graph().N() != 2 || d.Graph().M() != 1 {
		t.Fatalf("after commit: %v / %v", delta, d.Graph())
	}
	mustCommit(t, d) // empty commits are valid epochs
	if d.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", d.Epoch())
	}
}

// TestCommitLineage: a commit that keeps the vertex count records its
// parent and a copy of the touched vertices; a growth epoch records none.
func TestCommitLineage(t *testing.T) {
	g := graph.MustNew(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	d := New(g)
	if err := d.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	first := mustCommit(t, d)
	if err := d.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	second := mustCommit(t, d)
	if p, touched := first.Next.Lineage(); p != g || len(touched) != 2 || touched[0] != 0 || touched[1] != 3 {
		t.Fatalf("epoch 1 lineage = %p, %v; want %p, [0 3] (the touched copy must survive the next commit)", p, touched, g)
	}
	if p, _ := second.Next.Lineage(); p != first.Next {
		t.Fatalf("epoch 2 parent = %p, want epoch 1 (%p)", p, first.Next)
	}
	v := d.AddVertex()
	if err := d.AddEdge(v, 0); err != nil {
		t.Fatal(err)
	}
	if p, touched := mustCommit(t, d).Next.Lineage(); p != nil || touched != nil {
		t.Fatalf("growth epoch has lineage %p, %v", p, touched)
	}
}
