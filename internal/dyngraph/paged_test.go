package dyngraph

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// modelGraph builds graph.New over an edge set.
func modelGraph(t *testing.T, n int, edges map[[2]int]bool) *graph.Graph {
	t.Helper()
	list := make([][2]int, 0, len(edges))
	for e := range edges {
		list = append(list, e)
	}
	g, err := graph.New(n, list)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameGraph fails unless got reads exactly as want every way a caller can
// read it: counts, ∆, every list and degree, every block view, and the
// flat CSR (which a paged graph builds on demand).
func sameGraph(t *testing.T, step string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: got %v, want %v", step, got, want)
	}
	for v := range want.N() {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || got.Degree(v) != want.Degree(v) {
			t.Fatalf("%s: vertex %d has %v, want %v", step, v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	for b := range got.Blocks() {
		off, adj := got.Block(b)
		for i := range len(off) - 1 {
			if v := b*graph.BlockSize + i; !slices.Equal(adj[off[i]:off[i+1]], want.Neighbors(v)) {
				t.Fatalf("%s: block %d reads %v for vertex %d, want %v", step, b, adj[off[i]:off[i+1]], v, want.Neighbors(v))
			}
		}
	}
	gotOff, gotAdj := got.CSR()
	wantOff, wantAdj := want.CSR()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatalf("%s: the flat CSR differs from graph.New's", step)
	}
}

// testCommitPaged drives one Dynamic over a 640-vertex graph — ten blocks,
// so at most five may be paged — through batches that stay paged, revisit
// a paged block, recount ∆ through pages, cross the compaction share,
// follow a compaction, fail inside a page, and grow n from a paged parent.
// Each step pins whether the commit paged (and how many blocks) and must
// build what graph.New builds from the test's own edge set; at the end
// every earlier snapshot must still read as it did when committed.
func testCommitPaged(t *testing.T) {
	n := 640
	edges := map[[2]int]bool{}
	for v := range n {
		edges[edgeOf(v, (v+1)%n)] = true
		if u := (v*7 + 3) % n; u != v {
			edges[edgeOf(v, u)] = true
		}
	}
	for u := 64; u < 96; u++ { // vertex 100 is the unique ∆ vertex
		edges[edgeOf(100, u)] = true
	}
	d := New(modelGraph(t, n, edges))
	type snap struct {
		name  string
		g     *graph.Graph
		n     int
		edges map[[2]int]bool
	}
	var history []snap
	steps := []struct {
		name      string
		ops       []commitOp
		wantErr   string
		wantPaged int // PagedBlocks after a valid step; 0 means it compacted
	}{
		{"one block", []commitOp{{'t', 1, 2}, {'t', 3, 10}}, "", 1},
		{"a second block", []commitOp{{'t', 70, 71}, {'t', 65, 120}}, "", 2},
		{"a paged block again", []commitOp{{'t', 1, 5}, {'-', 1, 0}}, "", 2},
		{"two more blocks", []commitOp{{'t', 130, 200}}, "", 4},
		{"∆ vertex loses edges", []commitOp{{'r', 100, 64}, {'r', 100, 65}, {'r', 100, 66}}, "", 4},
		{"past the share", []commitOp{{'t', 300, 400}, {'t', 500, 600}}, "", 0},
		{"after a compaction", []commitOp{{'t', 630, 639}, {'+', 600, 610}}, "", 1},
		{"absent removal in a page", []commitOp{{'t', 631, 633}, {'-', 632, 635}},
			"dyngraph: Commit: removal of absent edge (632,635)", 0},
		{"duplicate insertion in a page", []commitOp{{'+', 632, 636}, {'+', 2, 3}},
			"dyngraph: Commit: duplicate insertion of edge (2,3)", 0},
		{"growth from a paged parent", []commitOp{{'v', 0, 0}, {'+', 640, 5}}, "", 0},
		{"paged after growth", []commitOp{{'t', 640, 3}}, "", 2},
	}
	for _, st := range steps {
		next := maps(edges)
		before := d.Graph()
		for _, op := range st.ops {
			var err error
			switch op.kind {
			case 'v':
				d.AddVertex()
				n++
			case 't':
				if next[edgeOf(op.u, op.v)] {
					op.kind = 'r'
				} else {
					op.kind = 'a'
				}
				fallthrough
			default:
				err = applyOp(d, op, next)
			}
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		delta, err := d.Commit()
		if st.wantErr != "" {
			if err == nil || err.Error() != st.wantErr {
				t.Fatalf("%s: error %v, want %q", st.name, err, st.wantErr)
			}
			if d.Graph() != before {
				t.Fatalf("%s: a failed commit changed the snapshot", st.name)
			}
			d.Discard()
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		edges = next
		if got := delta.Next.PagedBlocks(); got != st.wantPaged {
			t.Fatalf("%s: %d paged blocks, want %d", st.name, got, st.wantPaged)
		}
		sameGraph(t, st.name, delta.Next, modelGraph(t, n, edges))
		history = append(history, snap{st.name, delta.Next, n, edges})
	}
	for _, h := range history {
		sameGraph(t, "later, "+h.name, h.g, modelGraph(t, h.n, h.edges))
	}
}

func edgeOf(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }

// maps copies an edge set.
func maps(edges map[[2]int]bool) map[[2]int]bool {
	out := make(map[[2]int]bool, len(edges))
	for e := range edges {
		out[e] = true
	}
	return out
}

// applyOp buffers one commitOp on d and applies it to the model edge set.
func applyOp(d *Dynamic, op commitOp, edges map[[2]int]bool) error {
	e := [2]int32{int32(op.u), int32(op.v)}
	switch op.kind {
	case 'a':
		edges[edgeOf(op.u, op.v)] = true
		return d.AddEdge(op.u, op.v)
	case 'r':
		delete(edges, edgeOf(op.u, op.v))
		return d.RemoveEdge(op.u, op.v)
	case '+':
		edges[edgeOf(op.u, op.v)] = true
		d.ApplyEdgeDeltas([][2]int32{e}, nil)
	case '-':
		delete(edges, edgeOf(op.u, op.v))
		d.ApplyEdgeDeltas(nil, [][2]int32{e})
	}
	return nil
}

// TestCommitOverMappedBase commits over a memory-mapped kwcsr base, closes
// the mapping (which unmaps it), and then reads every later epoch: the
// first commit must have copied the base to the heap, so no snapshot after
// it reads mapped memory.
func TestCommitOverMappedBase(t *testing.T) {
	g0, err := gen.UnitDisk(2000, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.kwcsr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteBinaryCSR(f, g0, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := graphio.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped := m.Graph().Mapped()
	if !mapped {
		t.Log("no mapping on this platform; the commits run over a heap copy")
	}
	edges := map[[2]int]bool{}
	for _, e := range g0.Edges() {
		edges[e] = true
	}
	d := New(m.Graph())
	toggle := func(u, v int) {
		op := commitOp{'a', u, v}
		if edges[edgeOf(u, v)] {
			op.kind = 'r'
		}
		if err := applyOp(d, op, edges); err != nil {
			t.Fatal(err)
		}
	}
	toggle(1, 2)
	first := mustCommit(t, d).Next
	if mapped && (first.Mapped() || first.PagedBlocks() != 0) {
		t.Fatalf("the first commit over a mapping: mapped %v, %d paged blocks; want a flat heap copy",
			first.Mapped(), first.PagedBlocks())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	type snap struct {
		g     *graph.Graph
		edges map[[2]int]bool
	}
	history := []snap{{first, maps(edges)}}
	paged := 0
	for i := range 40 {
		toggle((i*37)%2000, (i*37+11)%2000)
		toggle((i*53+5)%2000, (i*91+700)%2000)
		g := mustCommit(t, d).Next
		if g.PagedBlocks() > 0 {
			paged++
		}
		history = append(history, snap{g, maps(edges)})
	}
	if paged == 0 {
		t.Fatal("no commit after the first took the paged path")
	}
	for i, h := range history {
		sameGraph(t, fmt.Sprintf("epoch %d", i+1), h.g, modelGraph(t, 2000, h.edges))
	}
}
