package baseline

import (
	"testing"

	"kwmds/internal/exact"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

func testFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	g, err := gen.GNP(80, 0.07, 1)
	add("gnp", g, err)
	g, err = gen.UnitDisk(90, 0.17, 2)
	add("udg", g, err)
	g, err = gen.Grid(7, 9)
	add("grid", g, err)
	g, err = gen.Star(25)
	add("star", g, err)
	g, err = gen.Clique(10)
	add("clique", g, err)
	g, err = gen.CliqueChain(3, 5)
	add("cliquechain", g, err)
	g, err = gen.RandomTree(40, 3)
	add("tree", g, err)
	add("edgeless", graph.MustNew(5, nil), nil)
	return out
}

func TestGreedyDominatesEverywhere(t *testing.T) {
	for name, g := range testFamilies(t) {
		res := Greedy(g)
		if !g.IsDominatingSet(res.InDS) {
			t.Errorf("%s: greedy set not dominating", name)
		}
		if res.Size != graph.SetSize(res.InDS) {
			t.Errorf("%s: size mismatch", name)
		}
	}
}

func TestGreedyKnownOptima(t *testing.T) {
	tests := []struct {
		name string
		mk   func() (*graph.Graph, error)
		want int
	}{
		{"star", func() (*graph.Graph, error) { return gen.Star(30) }, 1},
		{"clique", func() (*graph.Graph, error) { return gen.Clique(8) }, 1},
		{"cliquechain", func() (*graph.Graph, error) { return gen.CliqueChain(4, 6) }, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			if res := Greedy(g); res.Size != tc.want {
				t.Errorf("greedy size = %d, want %d", res.Size, tc.want)
			}
		})
	}
}

// Greedy's ratio never exceeds H(∆+1) ≈ ln(∆+1)+1 against the exact optimum.
func TestGreedyRatioBound(t *testing.T) {
	for trial := int64(0); trial < 15; trial++ {
		g, err := gen.GNP(22, 0.15, trial)
		if err != nil {
			t.Fatal(err)
		}
		res := Greedy(g)
		opt, err := exact.Size(g)
		if err != nil {
			t.Fatal(err)
		}
		h := 0.0
		for i := 1; i <= g.MaxDegree()+1; i++ {
			h += 1 / float64(i)
		}
		if float64(res.Size) > h*float64(opt)+1e-9 {
			t.Errorf("trial %d: greedy %d > H(∆+1)·opt = %v·%d", trial, res.Size, h, opt)
		}
	}
}

func TestTrivial(t *testing.T) {
	g, err := gen.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	res := Trivial(g)
	if res.Size != 5 || !g.IsDominatingSet(res.InDS) {
		t.Errorf("trivial: size %d", res.Size)
	}
}

func TestJRSDominatesEverywhere(t *testing.T) {
	for name, g := range testFamilies(t) {
		for seed := int64(0); seed < 3; seed++ {
			res, err := JRS(g, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !g.IsDominatingSet(res.InDS) {
				t.Errorf("%s seed %d: JRS set not dominating", name, seed)
			}
		}
	}
}

func TestJRSQualityOnStar(t *testing.T) {
	// On a star the max-span candidate is the hub; JRS should pick a set
	// within a small factor of 1 (the hub, plus possibly a few leaves that
	// joined before coverage propagated).
	g, err := gen.Star(60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := JRS(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size > 5 {
		t.Errorf("JRS on star picked %d nodes", res.Size)
	}
}

func TestJRSRoundsPolylog(t *testing.T) {
	g, err := gen.GNP(300, 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := JRS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// O(log n · log ∆) with generous constants: log₂300 ≈ 8.2, log₂∆ ≈ 4.
	// 6 rounds per phase; allow 30 phases.
	if res.Rounds > 6*30 {
		t.Errorf("JRS used %d rounds, suspiciously many", res.Rounds)
	}
	if res.Rounds == 0 {
		t.Error("JRS reported zero rounds on a nonempty graph")
	}
}

func TestWuLiDominatesEverywhere(t *testing.T) {
	for name, g := range testFamilies(t) {
		res, err := WuLi(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.IsDominatingSet(res.InDS) {
			t.Errorf("%s: Wu-Li set not dominating", name)
		}
		if res.Rounds != 5 {
			t.Errorf("%s: Wu-Li used %d rounds, want constant 5", name, res.Rounds)
		}
	}
}

func TestWuLiMarkedSetOnPath(t *testing.T) {
	// On a path 0-1-2-3-4, internal vertices have two non-adjacent
	// neighbors → marked: {1,2,3}; pruning rule 2 removes nobody on a
	// path of this length (neighbors of 2 are 1,3 which are not adjacent).
	// Rule 1: N[1] ⊆ N[2]? N[1]={0,1,2}, N[2]={1,2,3} → no.
	g, err := gen.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WuLi(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2, 3} {
		if !res.Marked[v] {
			t.Errorf("path vertex %d should be marked", v)
		}
	}
	if res.Marked[0] || res.Marked[4] {
		t.Error("path endpoints should not be marked")
	}
}

func TestWuLiMarkedConnectedOnUDG(t *testing.T) {
	g, err := gen.UnitDisk(80, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Skip("seed gave disconnected UDG")
	}
	res, err := WuLi(g)
	if err != nil {
		t.Fatal(err)
	}
	members := graph.Members(res.Marked)
	if len(members) == 0 {
		t.Skip("degenerate marking")
	}
	sub, _ := g.Subgraph(members)
	if !sub.IsConnected() {
		t.Error("Wu-Li marked set (pre-fallback) not connected on a connected UDG")
	}
	// The marked set should itself dominate here (fallback only fires on
	// degenerate graphs).
	if res.FallbackJoins > 0 && !g.IsDominatingSet(res.Marked) {
		t.Logf("note: fallback fired %d times", res.FallbackJoins)
	}
}

func TestWuLiCliqueFallback(t *testing.T) {
	// Complete graph: nothing is marked; fallback elects exactly vertex 0.
	g, err := gen.Clique(7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WuLi(g)
	if err != nil {
		t.Fatal(err)
	}
	if graph.SetSize(res.Marked) != 0 {
		t.Error("clique should mark nothing")
	}
	if res.Size != 1 || !res.InDS[0] {
		t.Errorf("clique fallback picked %v (size %d), want just vertex 0",
			graph.Members(res.InDS), res.Size)
	}
	if res.FallbackJoins != 1 {
		t.Errorf("FallbackJoins = %d, want 1", res.FallbackJoins)
	}
}

func TestLubyMISProperties(t *testing.T) {
	for name, g := range testFamilies(t) {
		for seed := int64(0); seed < 3; seed++ {
			res, err := LubyMIS(g, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			// Independence.
			for _, e := range g.Edges() {
				if res.InDS[e[0]] && res.InDS[e[1]] {
					t.Fatalf("%s seed %d: MIS contains edge %v", name, seed, e)
				}
			}
			// Maximality ⇒ domination.
			if !g.IsDominatingSet(res.InDS) {
				t.Fatalf("%s seed %d: MIS not maximal/dominating", name, seed)
			}
		}
	}
}

func TestLubyMISRoundsLogarithmic(t *testing.T) {
	g, err := gen.GNP(400, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LubyMIS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 rounds per phase, expect ≈ O(log n) ≈ 9 phases; allow 25.
	if res.Rounds > 3*25 {
		t.Errorf("Luby used %d rounds", res.Rounds)
	}
}

func TestDistributedBaselinesOnEmptyAndSingleton(t *testing.T) {
	empty := graph.MustNew(0, nil)
	single := graph.MustNew(1, nil)
	if res, err := JRS(empty, 1); err != nil || res.Size != 0 {
		t.Errorf("JRS empty: %v %v", res, err)
	}
	if res, err := JRS(single, 1); err != nil || res.Size != 1 {
		t.Errorf("JRS singleton: size=%d err=%v, want 1", res.Size, err)
	}
	if res, err := WuLi(single); err != nil || res.Size != 1 {
		t.Errorf("WuLi singleton: size=%d err=%v, want 1", res.Size, err)
	}
	if res, err := LubyMIS(single, 1); err != nil || res.Size != 1 {
		t.Errorf("Luby singleton: size=%d err=%v, want 1", res.Size, err)
	}
}

func TestCeilPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {100, 128},
	}
	for _, tc := range tests {
		if got := ceilPow2(tc.in); got != tc.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNbrListBits(t *testing.T) {
	if nbrList(nil).Bits() != 1 {
		t.Error("empty list should cost 1 bit")
	}
	// ids 1 (1 bit) and 255 (8 bits).
	if got := nbrList([]int32{1, 255}).Bits(); got != 9 {
		t.Errorf("Bits = %d, want 9", got)
	}
	if got := nbrList([]int32{0}).Bits(); got != 1 {
		t.Errorf("Bits([0]) = %d, want 1", got)
	}
}
