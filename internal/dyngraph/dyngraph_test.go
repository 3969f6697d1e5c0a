package dyngraph

import (
	"slices"
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
	t.Run("table", testCommitTable)
	t.Run("paged", testCommitPaged)
}

// commitOp is one buffered mutation of a commit-table step.
type commitOp struct {
	kind byte // 'a' AddEdge, 'r' RemoveEdge, '+' batch insertion, '-' batch removal, 't' batch toggle, 'v' AddVertex
	u, v int
}

// testCommitTable drives one persistent Dynamic through a table of batches
// — Commit keeps its per-vertex scratch across commits, so every step
// also checks that the steps before it, failed ones included, left that
// scratch clean. A valid step must commit exactly what graph.New builds
// from the test's own edge set (CSR arrays, ∆, Delta.Touched, Grew); a
// failing one must return its pinned error text and leave the committed
// state unchanged, after which the batch is discarded.
func testCommitTable(t *testing.T) {
	// Vertex 3 is the unique ∆ vertex (degree 4); 5 and 6 have degree 3.
	base := graph.MustNew(10, [][2]int{{0, 3}, {1, 3}, {2, 3}, {3, 4}, {5, 6}, {5, 7}, {5, 8}, {6, 7}, {6, 9}, {0, 9}})
	every := make([]commitOp, 0, 11) // after the growth step, n = 11
	for v := 0; v < 11; v++ {
		every = append(every, commitOp{'t', v, (v + 1) % 11})
	}
	steps := []struct {
		name    string
		ops     []commitOp
		wantErr string
		wantMax int // ∆ after a valid step (−1: not pinned)
	}{
		{"touch 0 and n-1", []commitOp{{'r', 0, 9}}, "", 4},
		{"unique ∆ vertex loses an edge", []commitOp{{'r', 3, 4}}, "", 3},
		{"one of two tied ∆ vertices loses an edge", []commitOp{{'r', 5, 8}}, "", 3},
		{"add and remove one edge interactively", []commitOp{{'a', 1, 2}, {'r', 2, 1}}, "", -1},
		{"add and remove one edge in a batch", []commitOp{{'+', 1, 2}, {'-', 2, 1}},
			"dyngraph: Commit: removal of absent edge (1,2)", 0},
		{"duplicate insertion", []commitOp{{'+', 1, 2}, {'+', 2, 1}},
			"dyngraph: Commit: duplicate insertion of edge (1,2)", 0},
		{"duplicate removal", []commitOp{{'-', 3, 0}, {'-', 0, 3}},
			"dyngraph: Commit: duplicate removal of edge (0,3)", 0},
		{"removal of an absent edge", []commitOp{{'-', 1, 7}},
			"dyngraph: Commit: removal of absent edge (1,7)", 0},
		{"removals beyond the degree", []commitOp{{'-', 1, 7}, {'-', 1, 8}},
			"dyngraph: Commit: removal of absent edge at vertex 1", 0},
		{"insertion of an existing edge", []commitOp{{'+', 7, 6}},
			"dyngraph: Commit: duplicate insertion of edge (6,7)", 0},
		{"batch and interactive insertion collide", []commitOp{{'a', 2, 4}, {'+', 4, 2}},
			"dyngraph: Commit: duplicate insertion of edge (2,4)", 0},
		{"endpoint out of range", []commitOp{{'+', 0, 2}, {'+', 0, 10}},
			"dyngraph: ApplyEdgeDeltas(add): edge (0,10) out of range [0,10)", 0},
		{"self-loop", []commitOp{{'-', 3, 0}, {'-', 4, 4}},
			"dyngraph: ApplyEdgeDeltas(remove): self-loop at vertex 4", 0},
		{"interactive ops mixed with a batch", []commitOp{{'a', 1, 8}, {'r', 6, 9}, {'+', 2, 7}, {'-', 0, 3}}, "", -1},
		{"growth with edges to the new vertex", []commitOp{{'v', 0, 0}, {'a', 10, 0}, {'+', 9, 10}, {'-', 3, 2}}, "", -1},
		{"a batch touching every vertex", every, "", -1},
	}
	d := New(base)
	n := base.N()
	edges := edgesOf(base)
	key := func(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }
	for _, st := range steps {
		prev, epoch := d.Graph(), d.Epoch()
		for _, op := range st.ops {
			var err error
			switch op.kind {
			case 'a':
				err = d.AddEdge(op.u, op.v)
			case 'r':
				err = d.RemoveEdge(op.u, op.v)
			case '+':
				d.ApplyEdgeDeltas([][2]int32{{int32(op.u), int32(op.v)}}, nil)
			case '-':
				d.ApplyEdgeDeltas(nil, [][2]int32{{int32(op.u), int32(op.v)}})
			case 't':
				e := [][2]int32{{int32(op.u), int32(op.v)}}
				if edges[key(op.u, op.v)] {
					d.ApplyEdgeDeltas(nil, e)
				} else {
					d.ApplyEdgeDeltas(e, nil)
				}
			case 'v':
				d.AddVertex()
			}
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		delta, err := d.Commit()
		if st.wantErr != "" {
			if err == nil || err.Error() != st.wantErr {
				t.Fatalf("%s: err = %v, want %q", st.name, err, st.wantErr)
			}
			if d.Graph() != prev || d.Epoch() != epoch {
				t.Fatalf("%s: the failed commit changed the committed state", st.name)
			}
			d.Discard()
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		// The test's own ledger: apply the step, then derive what changed.
		before := map[[2]int]bool{}
		for e := range edges {
			before[e] = true
		}
		oldN := n
		for _, op := range st.ops {
			switch op.kind {
			case 'a', '+':
				edges[key(op.u, op.v)] = true
			case 'r', '-':
				delete(edges, key(op.u, op.v))
			case 't':
				if before[key(op.u, op.v)] {
					delete(edges, key(op.u, op.v))
				} else {
					edges[key(op.u, op.v)] = true
				}
			case 'v':
				n++
			}
		}
		var wantTouched []int32
		for v := 0; v < n; v++ {
			changed := v >= oldN
			for u := 0; u < n && !changed; u++ {
				changed = before[key(u, v)] != edges[key(u, v)]
			}
			if changed {
				wantTouched = append(wantTouched, int32(v))
			}
		}
		list := make([][2]int, 0, len(edges))
		for e := range edges {
			list = append(list, e)
		}
		want := graph.MustNew(n, list)
		gotOff, gotAdj := delta.Next.CSR()
		wantOff, wantAdj := want.CSR()
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
			t.Fatalf("%s: CSR (%v, %v), want (%v, %v)", st.name, gotOff, gotAdj, wantOff, wantAdj)
		}
		if delta.Next.MaxDegree() != want.MaxDegree() || (st.wantMax >= 0 && want.MaxDegree() != st.wantMax) {
			t.Fatalf("%s: ∆ = %d, graph.New ∆ = %d, want %d", st.name, delta.Next.MaxDegree(), want.MaxDegree(), st.wantMax)
		}
		if !slices.Equal(delta.Touched, wantTouched) {
			t.Fatalf("%s: Touched = %v, want %v", st.name, delta.Touched, wantTouched)
		}
		if delta.Grew != (n > oldN) {
			t.Fatalf("%s: Grew = %v", st.name, delta.Grew)
		}
	}
}

func TestMutationValidation(t *testing.T) {
	base := graph.MustNew(4, [][2]int{{0, 1}, {1, 2}})
	cases := []struct {
		name string
		run  func(d *Dynamic) error
		want string
	}{
		{"self-loop add", func(d *Dynamic) error { return d.AddEdge(2, 2) }, "dyngraph: AddEdge: self-loop at vertex 2"},
		{"out-of-range add", func(d *Dynamic) error { return d.AddEdge(0, 4) }, "dyngraph: AddEdge: edge (0,4) out of range [0,4)"},
		{"negative add", func(d *Dynamic) error { return d.AddEdge(-1, 2) }, "dyngraph: AddEdge: edge (-1,2) out of range [0,4)"},
		{"duplicate add", func(d *Dynamic) error { return d.AddEdge(1, 0) }, "dyngraph: AddEdge: duplicate edge (1,0)"},
		{"pending duplicate add", func(d *Dynamic) error {
			if err := d.AddEdge(0, 2); err != nil {
				return err
			}
			return d.AddEdge(2, 0)
		}, "dyngraph: AddEdge: duplicate edge (2,0)"},
		{"remove absent", func(d *Dynamic) error { return d.RemoveEdge(0, 3) }, "dyngraph: RemoveEdge: no edge (0,3)"},
		{"remove removed", func(d *Dynamic) error {
			if err := d.RemoveEdge(0, 1); err != nil {
				return err
			}
			return d.RemoveEdge(1, 0)
		}, "dyngraph: RemoveEdge: no edge (1,0)"},
		{"weight out of range", func(d *Dynamic) error { return d.SetWeight(5, 2) }, "dyngraph: SetWeight: vertex 5 out of range [0,4)"},
		{"weight below one", func(d *Dynamic) error { return d.SetWeight(1, 0.5) }, "dyngraph: SetWeight: weight 0.5 outside [1, ∞)"},
		{"weight nan", func(d *Dynamic) error { return d.SetWeight(1, nan()) }, "dyngraph: SetWeight: weight NaN outside [1, ∞)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(base)
			err := tc.run(d)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			// A refused call buffers nothing: the next commit is empty.
			d.Discard()
			if delta := mustCommit(t, d); len(delta.Touched) != 0 || delta.Next != base {
				t.Fatalf("commit after the refused call changed the graph: touched %v", delta.Touched)
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
