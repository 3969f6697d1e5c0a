package gen

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"kwmds/internal/graph"
)

func TestGNPValidation(t *testing.T) {
	if _, err := GNP(-1, 0.5, 1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := GNP(10, -0.1, 1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := GNP(10, 1.5, 1); err == nil {
		t.Error("p > 1 accepted")
	}
}

func TestGNPExtremes(t *testing.T) {
	g, err := GNP(20, 0, 1)
	if err != nil || g.M() != 0 {
		t.Errorf("G(20,0): m=%d err=%v, want edgeless", g.M(), err)
	}
	g, err = GNP(20, 1, 1)
	if err != nil || g.M() != 190 {
		t.Errorf("G(20,1): m=%d err=%v, want complete (190)", g.M(), err)
	}
}

func TestGNPEdgeCountConcentrates(t *testing.T) {
	// E[m] = p·n(n-1)/2 = 0.01 * 499500 = 4995 for n=1000.
	// Std dev ≈ sqrt(4995·0.99) ≈ 70; allow 6σ.
	g, err := GNP(1000, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := 4995.0
	if math.Abs(float64(g.M())-want) > 6*70 {
		t.Errorf("G(1000,0.01) has %d edges, expected ≈%v", g.M(), want)
	}
}

func TestGNPDeterminism(t *testing.T) {
	a, _ := GNP(100, 0.1, 7)
	b, _ := GNP(100, 0.1, 7)
	c, _ := GNP(100, 0.1, 8)
	if a.M() != b.M() {
		t.Error("same seed produced different graphs")
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("same seed produced different edge lists")
		}
	}
	if a.M() == c.M() {
		// Edge counts can collide; compare lists only if counts match.
		ce := c.Edges()
		same := true
		for i := range ae {
			if ae[i] != ce[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestUnitDiskGeometry(t *testing.T) {
	g, pts, err := UnitDiskPoints(150, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force check: edge iff distance ≤ r.
	for i := 0; i < 150; i++ {
		for j := i + 1; j < 150; j++ {
			dx, dy := pts[i].X-pts[j].X, pts[i].Y-pts[j].Y
			near := dx*dx+dy*dy <= 0.2*0.2
			if g.HasEdge(i, j) != near {
				t.Fatalf("edge(%d,%d)=%v but dist²=%v", i, j, g.HasEdge(i, j), dx*dx+dy*dy)
			}
		}
	}
}

func TestUnitDiskExtremes(t *testing.T) {
	g, err := UnitDisk(50, 0, 1)
	if err != nil || g.M() != 0 {
		t.Errorf("radius 0 should give edgeless graph, m=%d err=%v", g.M(), err)
	}
	g, err = UnitDisk(50, 2, 1) // radius covers whole square
	if err != nil || g.M() != 50*49/2 {
		t.Errorf("radius 2 should give complete graph, m=%d err=%v", g.M(), err)
	}
	if _, err := UnitDisk(-1, 0.5, 1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := UnitDisk(5, -0.5, 1); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Errorf("n = %d, want 12", g.N())
	}
	// Edges: 3 rows × 3 horizontal + 2×4 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Errorf("m = %d, want 17", g.M())
	}
	if g.MaxDegree() != 4 {
		t.Errorf("Δ = %d, want 4", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Error("grid should be connected")
	}
	if _, err := Grid(-1, 2); err == nil {
		t.Error("negative dims accepted")
	}
}

func TestTorus(t *testing.T) {
	g, err := Torus(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 15 || g.M() != 30 {
		t.Errorf("torus 3x5: n=%d m=%d, want 15, 30", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus vertex %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	if _, err := Torus(2, 5); err == nil {
		t.Error("torus with dim < 3 accepted")
	}
}

func TestRandomTree(t *testing.T) {
	g, err := RandomTree(50, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 50 || g.M() != 49 {
		t.Errorf("tree: n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Error("tree should be connected")
	}
	a, _ := RandomTree(50, 9)
	if a.M() != g.M() {
		t.Error("determinism violated")
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := RandomRegular(30, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Error("odd n·d accepted")
	}
	if _, err := RandomRegular(4, 4, 1); err == nil {
		t.Error("d ≥ n accepted")
	}
	g, err = RandomRegular(10, 0, 1)
	if err != nil || g.M() != 0 {
		t.Error("0-regular should be edgeless")
	}
}

func TestPrefAttach(t *testing.T) {
	g, err := PrefAttach(200, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Errorf("n = %d", g.N())
	}
	// Initial clique K4 has 6 edges; each of the 196 later vertices adds 3.
	if g.M() != 6+196*3 {
		t.Errorf("m = %d, want %d", g.M(), 6+196*3)
	}
	if !g.IsConnected() {
		t.Error("BA graph should be connected")
	}
	// Degree skew: max degree should exceed the attachment parameter
	// substantially in a 200-vertex BA graph.
	if g.MaxDegree() < 10 {
		t.Errorf("Δ = %d suspiciously small for BA", g.MaxDegree())
	}
	if _, err := PrefAttach(3, 3, 1); err == nil {
		t.Error("n < m+1 accepted")
	}
}

func TestStructuredFamilies(t *testing.T) {
	star, err := Star(10)
	if err != nil || star.M() != 9 || star.Degree(0) != 9 {
		t.Errorf("star: m=%d deg0=%d err=%v", star.M(), star.Degree(0), err)
	}
	cl, err := Clique(6)
	if err != nil || cl.M() != 15 {
		t.Errorf("clique: m=%d err=%v", cl.M(), err)
	}
	p, err := Path(5)
	if err != nil || p.M() != 4 {
		t.Errorf("path: m=%d err=%v", p.M(), err)
	}
	c, err := Cycle(5)
	if err != nil || c.M() != 5 {
		t.Errorf("cycle: m=%d err=%v", c.M(), err)
	}
	if _, err := Cycle(2); err == nil {
		t.Error("Cycle(2) accepted")
	}
	if _, err := Star(0); err == nil {
		t.Error("Star(0) accepted")
	}
}

func TestCliqueChain(t *testing.T) {
	g, err := CliqueChain(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Errorf("n = %d, want 20", g.N())
	}
	// 4 cliques × C(5,2)=10 edges + 3 bridges.
	if g.M() != 43 {
		t.Errorf("m = %d, want 43", g.M())
	}
	if !g.IsConnected() {
		t.Error("clique chain should be connected")
	}
	if _, err := CliqueChain(2, 1); err == nil {
		t.Error("bridge placement with size 1 accepted")
	}
}

func TestStarOfStars(t *testing.T) {
	g, err := StarOfStars(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1+4*7 {
		t.Errorf("n = %d, want 29", g.N())
	}
	if g.Degree(0) != 4 {
		t.Errorf("root degree = %d, want 4", g.Degree(0))
	}
	// Hubs have degree leaves+1 = 7.
	if g.Degree(1) != 7 {
		t.Errorf("hub degree = %d, want 7", g.Degree(1))
	}
	if !g.IsConnected() {
		t.Error("star of stars should be connected")
	}
	// MDS of star-of-stars = hubs (+root covered by hubs): size 4.
	ds := make([]bool, g.N())
	for b := 0; b < 4; b++ {
		ds[1+b*7] = true
	}
	if !g.IsDominatingSet(ds) {
		t.Error("hub set should dominate")
	}
}

func TestGNPDegreeConsistency(t *testing.T) {
	g, err := GNP(500, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for v := 0; v < g.N(); v++ {
		total += g.Degree(v)
	}
	if total != 2*g.M() {
		t.Errorf("handshake violated: Σdeg=%d, 2m=%d", total, 2*g.M())
	}
	var _ = graph.SetSize // keep import for symmetry with other tests
}

// TestFromSpecRefusesPastTheVertexBound: a spec whose vertex count passes
// graph.New's bound fails, naming the bound, before its generator sizes a
// single array (the udg one would ask for a 48 GB point slice).
func TestFromSpecRefusesPastTheVertexBound(t *testing.T) {
	for _, spec := range []string{
		"udg:3000000000:0.1:1",
		"gnp:3000000000:0.1:1",
		"tree:3000000000:1",
		"ba:3000000000:2:1",
		"grid:100000:100000",
		"grid:2:1073741824",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := FromSpec(spec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("FromSpec(%q) accepted a graph past the bound", spec)
			continue
		}
		if !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("FromSpec(%q): %v, want the bound named", spec, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("FromSpec(%q) allocated %d bytes before refusing", spec, b)
		}
	}
	g, err := FromSpec("grid:1:5")
	if err != nil || g.N() != 5 {
		t.Errorf("FromSpec(grid:1:5) = %v, %v", g, err)
	}
}
