package fastpath

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/rounding"
)

// TestRoundingKernelMatchesReference pins the Algorithm 1 kernel — the
// flip as a comparison of each draw's 53 bits, four vertices at a time,
// against the vertex's threshold for x·Scale, the fix-up as a branch-free
// probe of each unflipped vertex's first four neighbors and a scan of the
// vertices it leaves, the set written as packed words — to the sequential
// reference, for both
// variants, 32 seeds and every worker count. The graphs cover serving
// scale (serve-cold's udg-10k), a last word holding fewer than 64
// vertices, isolated vertices (δ⁽²⁾ = 0, so Scale is 0, p = 0 for any x,
// and only the fix-up can join them), a dense graph where p ≥ 1, a path
// and a star, whose vertices of degree 1 to 3 skip the probe, and vertex
// counts of 1, 2 and 3 (mod 4), whose last word ends in a partial group
// of draws. Each graph is rounded over its LP solution, through Solve's
// memo path too, and over a synthetic x that puts every vertex class at
// p = 0, a subnormal p, p ∈ (0, 1), p ≥ 1 and p = +Inf. The probe graph
// adds an x under which hubs' first four neighbors never flip while a
// later one always does, so the scan after the probe runs and finds it.
func TestRoundingKernelMatchesReference(t *testing.T) {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Every fifth vertex of the isolated workload has no edge: a 240-vertex
	// G(n, p) relabeled to skip the ids 4, 9, 14, ….
	sparse := mk(gen.GNP(240, 0.02, 17))
	var isoEdges [][2]int
	for _, e := range sparse.Edges() {
		isoEdges = append(isoEdges, [2]int{e[0] + e[0]/4, e[1] + e[1]/4})
	}
	probe, probeX, covered, uncovered := probeWorkload(t)
	graphs := []struct {
		name string
		g    *graph.Graph
		x    []float64 // a third x to round over, or nil
	}{
		{"udg-10k", mk(gen.UnitDisk(10000, 0.02, 1)), nil},
		{"udg-1037", mk(gen.UnitDisk(1037, 0.06, 5)), nil}, // n ≡ 1 (mod 4)
		{"isolated-300", mk(graph.New(300, isoEdges)), nil},
		{"gnp-dense-130", mk(gen.GNP(130, 0.5, 9)), nil}, // n ≡ 2 (mod 4)
		{"path-203", mk(gen.Path(203)), nil},             // n ≡ 3 (mod 4)
		{"star-130", mk(gen.Star(130)), nil},
		{"probe-241", probe, probeX}, // n ≡ 1 (mod 4)
	}
	synthetic := []float64{0, 5e-324, 0.01, 0.3, 1, math.MaxFloat64}
	const k = 3
	s := New()
	for _, w := range graphs {
		n := w.g.N()
		if w.name == "isolated-300" && w.g.Degree(299) != 0 {
			t.Fatalf("%s: vertex 299 has degree %d, want isolated", w.name, w.g.Degree(299))
		}
		lpX, err := New().Fractional(w.g, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		synX := make([]float64, n)
		for v := range synX {
			synX[v] = synthetic[v%len(synthetic)]
		}
		type input struct {
			name string
			x    []float64
		}
		inputs := []input{{"lp", lpX}, {"synthetic", synX}}
		if w.x != nil {
			inputs = append(inputs, input{"probe", w.x})
		}
		for _, in := range inputs {
			for _, variant := range []rounding.Variant{rounding.Ln, rounding.LnMinusLnLn} {
				for seed := int64(0); seed < 32; seed++ {
					want, err := rounding.Reference(w.g, in.x, rounding.Options{Seed: seed, Variant: variant})
					if err != nil {
						t.Fatal(err)
					}
					if in.name == "probe" {
						// The workload must reach the scan: the covered hubs
						// stay out, the uncovered ones join in the fix-up.
						for _, h := range covered {
							if want.InDS[h] {
								t.Fatalf("%v seed %d: covered hub %d joined", variant, seed, h)
							}
						}
						for _, h := range uncovered {
							if !want.InDS[h] {
								t.Fatalf("%v seed %d: uncovered hub %d did not join", variant, seed, h)
							}
						}
					}
					for _, workers := range workerCounts {
						ctx := fmt.Sprintf("%s/%s/%v/seed %d/workers %d", w.name, in.name, variant, seed, workers)
						opt := Options{K: k, Seed: seed, Variant: variant, Workers: workers}
						got, err := s.Round(w.g, in.x, opt)
						if err != nil {
							t.Fatal(err)
						}
						sameRounding(t, ctx+"/Round", got, want)
						if in.name == "lp" {
							got, err := s.Solve(w.g, opt)
							if err != nil {
								t.Fatal(err)
							}
							sameRounding(t, ctx+"/Solve", got, want)
						}
					}
				}
			}
		}
	}
}

// TestThresholdDecidesAsTheDraw pins the flip's integer comparison to the
// reference's: for a draw's 53 bits m, m < threshold(p) must equal
// float64(m)/2⁵³ < p, the comparison rounding.flip makes for p in (0, 1),
// and p = 0 must admit no draw and p ≥ 1 every one, as its early outs
// decide. Each p is checked at m = threshold − 1 and m = threshold, where
// the comparison turns: at p = 0, the smallest subnormal, 2⁻⁵³,
// 1 − 2⁻⁵³, 1, MaxFloat64 and +Inf, and at multiples j·2⁻⁵³ one ulp
// below, at and one ulp above, where the ceiling decides.
func TestThresholdDecidesAsTheDraw(t *testing.T) {
	const two53 = 1 << 53
	ps := []float64{0, math.SmallestNonzeroFloat64, 1.0 / two53, 1 - 1.0/two53, 1, math.MaxFloat64, math.Inf(1)}
	for _, j := range []uint64{1, 2, 3, 1000, 1<<52 - 1, 1 << 52, 1<<52 + 1, two53 - 2, two53 - 1} {
		p := float64(j) / two53
		ps = append(ps, math.Nextafter(p, 0), p, math.Nextafter(p, 2))
	}
	for _, p := range ps {
		thr := threshold(p)
		switch {
		case thr > two53:
			t.Fatalf("threshold(%v) = %d, above 2⁵³", p, thr)
		case p == 0 && thr != 0:
			t.Fatalf("threshold(0) = %d, want 0: p = 0 never joins", thr)
		case p >= 1 && thr != two53:
			t.Fatalf("threshold(%v) = %d, want 2⁵³: p ≥ 1 always joins", p, thr)
		}
		for _, m := range []uint64{thr - 1, thr} {
			if m >= two53 { // below 0 or past the last draw
				continue
			}
			if got, want := m < thr, float64(m)/two53 < p; got != want {
				t.Errorf("p = %v (%#016x): m = %d < threshold %d is %v, m/2⁵³ < p is %v",
					p, math.Float64bits(p), m, thr, got, want)
			}
		}
	}
}

// probeWorkload returns 40 six-vertex groups and one isolated vertex, with
// an x for them. In group i, hub 6i+5 is adjacent to 6i..6i+4, so those
// are its first five neighbors in sorted order. The first four have x = 0
// and never flip; so does the hub. The fifth has x = MaxFloat64 and always
// flips in even groups (whose hubs, listed in covered, the scan after the
// probe finds covered) and has x = 0 in odd groups (whose hubs, listed in
// uncovered, scan every neighbor and join in the fix-up). The four leaves
// of degree 1 skip the probe.
func probeWorkload(t *testing.T) (g *graph.Graph, x []float64, covered, uncovered []int) {
	t.Helper()
	const groups = 40
	var edges [][2]int
	x = make([]float64, 6*groups+1)
	for i := 0; i < groups; i++ {
		hub := 6*i + 5
		for j := 0; j < 5; j++ {
			edges = append(edges, [2]int{hub, 6*i + j})
		}
		if i%2 == 0 {
			x[6*i+4] = math.MaxFloat64
			covered = append(covered, hub)
		} else {
			uncovered = append(uncovered, hub)
		}
	}
	g, err := graph.New(len(x), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, x, covered, uncovered
}

func sameRounding(t *testing.T, ctx string, got Result, want *rounding.Result) {
	t.Helper()
	if got.JoinedRandom != want.JoinedRandom || got.JoinedFixup != want.JoinedFixup || got.Size != want.Size {
		t.Fatalf("%s: joined (random %d, fix-up %d, size %d), want (%d, %d, %d)", ctx,
			got.JoinedRandom, got.JoinedFixup, got.Size, want.JoinedRandom, want.JoinedFixup, want.Size)
	}
	sameSet(t, ctx, got.Set, want.InDS)
}

// sameSet fails t unless the packed set equals graph.PackSet(want) word for
// word, naming the first vertex that differs.
func sameSet(t *testing.T, ctx string, got []uint64, want []bool) {
	t.Helper()
	wantWords := graph.PackSet(want)
	if slices.Equal(got, wantWords) {
		return
	}
	if len(got) != len(wantWords) {
		t.Fatalf("%s: %d set words, want %d", ctx, len(got), len(wantWords))
	}
	for wi := range got {
		if d := got[wi] ^ wantWords[wi]; d != 0 {
			v := wi<<6 + bits.TrailingZeros64(d)
			t.Fatalf("%s: vertex %d in set = %v, want %v (word %d: %#x, want %#x)",
				ctx, v, got[wi]>>(v&63)&1 != 0, v < len(want) && want[v], wi, got[wi], wantWords[wi])
		}
	}
}
