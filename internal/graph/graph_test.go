package graph

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// k4 returns the complete graph on 4 vertices.
func k4(t *testing.T) *Graph {
	t.Helper()
	g, err := New(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// path5 returns the path 0-1-2-3-4.
func path5(t *testing.T) *Graph {
	t.Helper()
	g, err := New(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"negative n", -1, nil},
		{"self loop", 3, [][2]int{{1, 1}}},
		{"out of range high", 3, [][2]int{{0, 3}}},
		{"out of range negative", 3, [][2]int{{-1, 0}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.n, tc.edges); err == nil {
				t.Errorf("New(%d, %v) succeeded, want error", tc.n, tc.edges)
			}
		})
	}
}

// TestNewRefusesOversizedGraphs: a vertex count past int32 ids fails with
// an error naming the bound, before New sizes a single per-vertex array
// (three of them at 2³¹ vertices would take 24 GB).
func TestNewRefusesOversizedGraphs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(1<<31, nil)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("New(1<<31, nil) = %v, want an error naming the bound 2147483647", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("New(1<<31, nil) allocated %d bytes before refusing", grew)
	}
}

func TestNewDeduplicatesEdges(t *testing.T) {
	g, err := New(3, [][2]int{{0, 1}, {1, 0}, {0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2 after dedup", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(2) != 1 {
		t.Errorf("degrees = %d,%d,%d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	g, err := New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Errorf("empty graph: n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	g, err = New(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Errorf("edgeless: n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
}

func TestBasicAccessors(t *testing.T) {
	g := k4(t)
	if g.N() != 4 || g.M() != 6 || g.MaxDegree() != 3 {
		t.Fatalf("K4: n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 3 {
			t.Errorf("K4 degree(%d) = %d", v, g.Degree(v))
		}
	}
	nbrs := g.Neighbors(2)
	want := []int32{0, 1, 3}
	for i, u := range nbrs {
		if u != want[i] {
			t.Errorf("Neighbors(2) = %v, want %v", nbrs, want)
			break
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := path5(t)
	tests := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, false}, {2, 3, true}, {4, 0, false},
	}
	for _, tc := range tests {
		if got := g.HasEdge(tc.u, tc.v); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestEdgesRoundtrip(t *testing.T) {
	in := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	g, err := New(4, in)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Edges()
	if len(out) != 4 {
		t.Fatalf("Edges() returned %d edges, want 4", len(out))
	}
	g2, err := New(4, out)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Errorf("roundtrip changed edge count: %d vs %d", g2.M(), g.M())
	}
	for _, e := range out {
		if e[0] >= e[1] {
			t.Errorf("edge %v not in canonical u<v order", e)
		}
	}
}

func TestDegree1Degree2(t *testing.T) {
	// Star with an appended path: 0 is the hub of {1,2,3}, and 3-4-5 path.
	g, err := New(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	d1 := g.Degree1()
	d2 := g.Degree2()
	// degrees: 0:3 1:1 2:1 3:2 4:2 5:1
	wantD1 := []int{3, 3, 3, 3, 2, 2}
	wantD2 := []int{3, 3, 3, 3, 3, 2}
	for v := range wantD1 {
		if d1[v] != wantD1[v] {
			t.Errorf("δ1(%d) = %d, want %d", v, d1[v], wantD1[v])
		}
		if d2[v] != wantD2[v] {
			t.Errorf("δ2(%d) = %d, want %d", v, d2[v], wantD2[v])
		}
	}
}

// bruteDegree2 recomputes δ⁽²⁾ by explicit distance-2 enumeration.
func bruteDegree2(g *Graph) []int {
	n := g.N()
	out := make([]int, n)
	for v := 0; v < n; v++ {
		dist := g.BFS(v)
		m := 0
		for u := 0; u < n; u++ {
			if dist[u] >= 0 && dist[u] <= 2 && g.Degree(u) > m {
				m = g.Degree(u)
			}
		}
		out[v] = m
	}
	return out
}

func TestDegree2MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(40)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.15 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g, err := New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteDegree2(g)
		got := g.Degree2()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: δ2(%d) = %d, want %d (g=%v)", trial, v, got[v], want[v], g)
			}
		}
	}
}

func TestIsDominatingSet(t *testing.T) {
	g := path5(t)
	tests := []struct {
		name string
		ds   []bool
		want bool
	}{
		{"middle node only", []bool{false, false, true, false, false}, false},
		{"1 and 3", []bool{false, true, false, true, false}, true},
		{"all", []bool{true, true, true, true, true}, true},
		{"none", []bool{false, false, false, false, false}, false},
		{"endpoints", []bool{true, false, false, false, true}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.IsDominatingSet(tc.ds); got != tc.want {
				t.Errorf("IsDominatingSet = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestUncovered(t *testing.T) {
	g := path5(t)
	un := g.Uncovered([]bool{true, false, false, false, false})
	want := []int{2, 3, 4}
	if len(un) != len(want) {
		t.Fatalf("Uncovered = %v, want %v", un, want)
	}
	for i := range want {
		if un[i] != want[i] {
			t.Fatalf("Uncovered = %v, want %v", un, want)
		}
	}
}

func TestSetSizeAndMembers(t *testing.T) {
	ds := []bool{true, false, true, false}
	if SetSize(ds) != 2 {
		t.Errorf("SetSize = %d, want 2", SetSize(ds))
	}
	m := Members(ds)
	if len(m) != 2 || m[0] != 0 || m[1] != 2 {
		t.Errorf("Members = %v, want [0 2]", m)
	}
	// An empty set stays nil, so a JSON response still says null.
	if m := Members(make([]bool, 5)); m != nil {
		t.Errorf("Members of an empty set = %#v, want nil", m)
	}
}

// TestMembersAllocatesOnce: the member list is sized exactly up front, so
// a set of any size costs one allocation.
func TestMembersAllocatesOnce(t *testing.T) {
	ds := make([]bool, 10_000)
	for v := range ds {
		ds[v] = v%7 == 0
	}
	if got := testing.AllocsPerRun(20, func() { Members(ds) }); got != 1 {
		t.Errorf("Members allocs = %v, want 1", got)
	}
}

// TestSetHelpersMatchNaive checks the branch-free SetSize and Members, and
// the packed form's PackSet, UnpackSet and PackedMembers, against the
// plain loops on empty, all-true and random sets whose lengths straddle
// word boundaries.
func TestSetHelpersMatchNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	var sets [][]bool
	for _, n := range []int{0, 1, 63, 64, 65, 130, 10_000} {
		all, random := make([]bool, n), make([]bool, n)
		for v := range all {
			all[v] = true
			random[v] = r.Float64() < 0.47
		}
		sets = append(sets, make([]bool, n), all, random)
	}
	for i, set := range sets {
		var want []int
		for v, in := range set {
			if in {
				want = append(want, v)
			}
		}
		if got := SetSize(set); got != len(want) {
			t.Fatalf("set %d (n=%d): SetSize = %d, want %d", i, len(set), got, len(want))
		}
		got, packed := Members(set), PackedMembers(PackSet(set))
		if (got == nil) != (want == nil) || (packed == nil) != (want == nil) {
			t.Fatalf("set %d (n=%d): nil-ness of Members %v / PackedMembers %v, want %v", i, len(set), got == nil, packed == nil, want == nil)
		}
		for j := range want {
			if got[j] != want[j] || packed[j] != want[j] {
				t.Fatalf("set %d (n=%d): member %d is %d / %d, want %d", i, len(set), j, got[j], packed[j], want[j])
			}
		}
		if len(got) != len(want) || len(packed) != len(want) {
			t.Fatalf("set %d (n=%d): %d / %d members, want %d", i, len(set), len(got), len(packed), len(want))
		}
		words := PackSet(set)
		if len(words) != (len(set)+63)/64 {
			t.Fatalf("set %d (n=%d): %d packed words", i, len(set), len(words))
		}
		back := make([]bool, len(set))
		if UnpackSet(back, words); !slices.Equal(back, set) {
			t.Fatalf("set %d (n=%d): UnpackSet(PackSet(set)) differs from set", i, len(set))
		}
	}
}

func TestBFS(t *testing.T) {
	g := path5(t)
	dist := g.BFS(0)
	for v, want := range []int32{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("BFS dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
	// Disconnected graph.
	g2, _ := New(3, [][2]int{{0, 1}})
	dist = g2.BFS(0)
	if dist[2] != -1 {
		t.Errorf("unreachable vertex has dist %d, want -1", dist[2])
	}
}

func TestComponents(t *testing.T) {
	g, _ := New(6, [][2]int{{0, 1}, {2, 3}, {3, 4}})
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[3] != comp[4] {
		t.Errorf("component labels wrong: %v", comp)
	}
	if comp[0] == comp[2] || comp[2] == comp[5] {
		t.Errorf("distinct components share labels: %v", comp)
	}
	if g.IsConnected() {
		t.Error("IsConnected should be false for a 3-component graph")
	}
	g2 := path5(t)
	if !g2.IsConnected() {
		t.Error("path should be connected")
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path5", path5(t), 4},
		{"k4", k4(t), 1},
		{"disconnected", MustNew(3, [][2]int{{0, 1}}), -1},
		{"single", MustNew(1, nil), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Diameter(); got != tc.want {
				t.Errorf("Diameter = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestSubgraph(t *testing.T) {
	g := k4(t)
	sub, orig := g.Subgraph([]int{1, 2, 3})
	if sub.N() != 3 || sub.M() != 3 {
		t.Errorf("K4 induced on 3 vertices: n=%d m=%d, want triangle", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[1] != 2 || orig[2] != 3 {
		t.Errorf("orig mapping = %v", orig)
	}
}

func TestStringSummary(t *testing.T) {
	g := k4(t)
	if s := g.String(); s != "graph{n=4 m=6 Δ=3}" {
		t.Errorf("String = %q", s)
	}
}

// Property: for any valid edge list, CSR adjacency is symmetric and sorted.
func TestCSRSymmetryProperty(t *testing.T) {
	f := func(rawEdges [][2]uint8, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		var edges [][2]int
		for _, e := range rawEdges {
			u, v := int(e[0])%n, int(e[1])%n
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		g, err := New(n, edges)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			prev := int32(-1)
			for _, u := range g.Neighbors(v) {
				if u <= prev {
					return false // not sorted or duplicate
				}
				prev = u
				if !g.HasEdge(int(u), v) {
					return false // not symmetric
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with a self-loop should panic")
		}
	}()
	MustNew(2, [][2]int{{0, 0}})
}

func TestFromCSR(t *testing.T) {
	// Round-trip: a graph's own CSR arrays reconstruct an identical graph.
	g := MustNew(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	off, adj := g.CSR()
	got, err := FromCSR(append([]int32{}, off...), append([]int32{}, adj...))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() || got.MaxDegree() != g.MaxDegree() {
		t.Fatalf("round-trip: got %v, want %v", got, g)
	}
	for v := 0; v < g.N(); v++ {
		gn, wn := got.Neighbors(v), g.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("vertex %d: %v vs %v", v, gn, wn)
		}
		for i := range wn {
			if gn[i] != wn[i] {
				t.Fatalf("vertex %d: %v vs %v", v, gn, wn)
			}
		}
	}
	// Structural validation failures.
	cases := []struct {
		name string
		off  []int32
		adj  []int32
	}{
		{"empty offsets", nil, nil},
		{"nonzero first offset", []int32{1, 2}, []int32{0}},
		{"length mismatch", []int32{0, 2}, []int32{1}},
		{"decreasing offsets", []int32{0, 2, 1}, []int32{1, 0}},
		{"entry out of range", []int32{0, 1, 2}, []int32{1, 2}},
		{"negative entry", []int32{0, 1, 2}, []int32{1, -1}},
	}
	for _, tc := range cases {
		if _, err := FromCSR(tc.off, tc.adj); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestLineage pins the derivation record: FromCSRDerived reports its
// parent and touched vertices back, every other constructor none, and the
// parent pointer is weak — once nothing else holds the parent, the child
// forgets it.
func TestLineage(t *testing.T) {
	parent := MustNew(3, [][2]int{{0, 1}})
	child := FromCSRDerived(parent, []int32{0, 1, 3, 4}, []int32{1, 0, 2, 1}, 2, []int32{1, 2})
	if p, touched := child.Lineage(); p != parent || len(touched) != 2 || touched[0] != 1 || touched[1] != 2 {
		t.Fatalf("Lineage() = %p, %v; want %p, [1 2]", p, touched, parent)
	}
	if p, touched := parent.Lineage(); p != nil || touched != nil {
		t.Fatalf("graph.New result has lineage %p, %v", p, touched)
	}
	orphan := func() *Graph {
		gone := MustNew(3, [][2]int{{0, 1}})
		return FromCSRDerived(gone, []int32{0, 1, 3, 4}, []int32{1, 0, 2, 1}, 2, []int32{1, 2})
	}()
	runtime.GC()
	if p, touched := orphan.Lineage(); p != nil || touched != nil {
		t.Fatalf("Lineage kept an unreachable parent alive: %p, %v", p, touched)
	}
}

// TestSuccessorPages builds a paged successor by hand — block 1 of a
// 150-vertex path gets a page in which vertex 64 also links to 149 — and
// reads it every way: lists, degrees, counts, block views, the flat copy
// CSR builds, and the lineage. The parent must read as before, and a
// successor of the successor must share its pages.
func TestSuccessorPages(t *testing.T) {
	var edges [][2]int
	for v := 0; v+1 < 150; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	parent := MustNew(150, edges)
	want := MustNew(150, append(edges, [2]int{64, 149}))
	s := parent.Successor()
	pOff, pAdj := parent.Block(1)
	off, adj := s.Page(1, int(pOff[64]-pOff[0])+1, 0)
	if len(off) != 65 || off[0] != 0 {
		t.Fatalf("page offsets: %d entries, first %d", len(off), off[0])
	}
	pos := int32(0)
	for i := range 64 {
		copy(adj[pos:], pAdj[pOff[i]:pOff[i+1]])
		pos += pOff[i+1] - pOff[i]
		if i == 0 {
			adj[pos] = 149
			pos++
		}
		off[i+1] = pos
	}
	// Vertex 149 is in block 2, which needs a page too.
	qOff, qAdj := parent.Block(2)
	off2, adj2 := s.Page(2, int(qOff[len(qOff)-1]-qOff[0])+1, 0)
	pos = 0
	for i := range len(qOff) - 1 {
		copy(adj2[pos:], qAdj[qOff[i]:qOff[i+1]])
		pos += qOff[i+1] - qOff[i]
		if i == 149-128 {
			adj2[pos-1], adj2[pos] = 64, adj2[pos-1] // 148 stays last: 64 < 148
			pos++
		}
		off2[i+1] = pos
	}
	child := s.Graph(3, []int32{64, 149})
	if child.PagedBlocks() != 2 || parent.PagedBlocks() != 0 {
		t.Fatalf("paged blocks: child %d, parent %d", child.PagedBlocks(), parent.PagedBlocks())
	}
	if p, touched := child.Lineage(); p != parent || !slices.Equal(touched, []int32{64, 149}) {
		t.Fatalf("Lineage() = %p, %v", p, touched)
	}
	check := func(name string, got, want *Graph) {
		t.Helper()
		if got.N() != want.N() || got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
			t.Fatalf("%s: %v, want %v", name, got, want)
		}
		for v := range want.N() {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || got.Degree(v) != want.Degree(v) {
				t.Fatalf("%s: vertex %d has %v, want %v", name, v, got.Neighbors(v), want.Neighbors(v))
			}
		}
		for b := range got.Blocks() {
			off, adj := got.Block(b)
			for i := range len(off) - 1 {
				if !slices.Equal(adj[off[i]:off[i+1]], want.Neighbors(b*BlockSize+i)) {
					t.Fatalf("%s: block %d, vertex %d", name, b, i)
				}
			}
		}
		gotOff, gotAdj := got.CSR()
		wantOff, wantAdj := want.CSR()
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
			t.Fatalf("%s: the flat CSR differs", name)
		}
	}
	check("child", child, want)
	check("parent", parent, MustNew(150, edges))
	grand := child.Successor().Graph(3, nil)
	check("grandchild", grand, want)
	if grand.PagedBlocks() != 2 {
		t.Fatalf("the grandchild has %d paged blocks, want its parent's 2", grand.PagedBlocks())
	}
}

// TestPagedCSRConcurrent flattens one paged graph from several goroutines
// at once: every caller must get the same arrays. Run under -race.
func TestPagedCSRConcurrent(t *testing.T) {
	var edges [][2]int
	for v := 0; v+1 < 300; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	g := MustNew(300, edges)
	s := g.Successor()
	pOff, pAdj := g.Block(2)
	off, adj := s.Page(2, int(pOff[len(pOff)-1]-pOff[0]), 0)
	for i := range len(pOff) - 1 {
		off[i+1] = off[i] + int32(copy(adj[off[i]:], pAdj[pOff[i]:pOff[i+1]]))
	}
	paged := s.Graph(g.MaxDegree(), nil)
	wantOff, wantAdj := g.CSR()
	var wg sync.WaitGroup
	offs := make([][]int32, 8)
	for i := range offs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offs[i], _ = paged.CSR()
		}()
	}
	wg.Wait()
	gotOff, gotAdj := paged.CSR()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatal("the flat copy differs from the graph it pages over")
	}
	for i, o := range offs {
		if &o[0] != &gotOff[0] {
			t.Fatalf("caller %d got a second copy", i)
		}
	}
}
