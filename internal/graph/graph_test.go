package graph

import (
	"math/rand/v2"
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
	if g.N() != 5 || g.M() != 0 || g.AvgDegree() != 0 {
		t.Errorf("edgeless: n=%d m=%d avg=%f", g.N(), g.M(), g.AvgDegree())
	}
}

func TestBasicAccessors(t *testing.T) {
	g := k4(t)
	if g.N() != 4 || g.M() != 6 || g.MaxDegree() != 3 {
		t.Fatalf("K4: n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	if g.AvgDegree() != 3 {
		t.Errorf("K4 avg degree = %f, want 3", g.AvgDegree())
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

func TestEstimateDiameterExactOnPaths(t *testing.T) {
	g := path5(t)
	if got := g.EstimateDiameter(); got != 4 {
		t.Errorf("EstimateDiameter(path5) = %d, want 4", got)
	}
	if got := MustNew(3, [][2]int{{0, 1}}).EstimateDiameter(); got != -1 {
		t.Errorf("EstimateDiameter(disconnected) = %d, want -1", got)
	}
}

func TestEstimateDiameterLowerBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(25)
		// Random connected graph: random tree plus extra edges.
		var edges [][2]int
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{rng.IntN(v), v})
		}
		for i := 0; i < n/2; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		g, err := New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		est, exact := g.EstimateDiameter(), g.Diameter()
		if est > exact {
			t.Fatalf("estimate %d exceeds exact %d", est, exact)
		}
		if est < (exact+1)/2 {
			t.Fatalf("2-sweep estimate %d below diam/2 = %d", est, (exact+1)/2)
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := path5(t)
	h := g.DegreeHistogram()
	// path5 degrees: 1,2,2,2,1
	if h[1] != 2 || h[2] != 3 {
		t.Errorf("histogram = %v", h)
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
