package fastpath

import (
	"fmt"
	"slices"
	"testing"

	"kwmds/internal/core"
	"kwmds/internal/gen"
	"kwmds/internal/rounding"
	"kwmds/internal/testsupport"
)

// FuzzDifferential is the three-backend differential fuzzer: a random small
// graph is solved through the fastpath solver, the sequential references
// and the sim engine, for every algorithm and rounding variant, and all
// InDS vectors, x-vectors and objectives must agree bit for bit. The seed
// corpus under testdata/fuzz/FuzzDifferential runs as part of plain
// `go test`; `go test -fuzz=FuzzDifferential ./internal/fastpath` explores
// beyond it.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(2))
	f.Add(int64(7), uint8(25), uint8(10), uint8(1))
	f.Add(int64(42), uint8(5), uint8(80), uint8(3))
	f.Add(int64(-9), uint8(31), uint8(55), uint8(2))
	f.Add(int64(1300), uint8(27), uint8(35), uint8(3)) // k = 4: beyond the small-k regime
	f.Add(int64(-41), uint8(14), uint8(90), uint8(4))  // k = 5 on a dense graph
	f.Fuzz(func(t *testing.T, gseed int64, nRaw, pRaw, kRaw uint8) {
		n := 2 + int(nRaw)%30        // 2..31 vertices
		p := float64(pRaw%101) / 100 // edge density 0..1
		k := 1 + int(kRaw)%5         // k 1..5 (k > 2 exercises the ℓ/m table regimes)
		g, err := gen.GNP(n, p, gseed)
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]float64, n)
		for v := range costs {
			costs[v] = 1 + float64((v*7+int(gseed&3))%5)
		}
		s := New()
		checkLP := func(name string, fast []float64, ref *core.RefResult, simX []float64) {
			t.Helper()
			var refObj, fastObj float64
			for v := 0; v < n; v++ {
				if fast[v] != ref.X[v] || simX[v] != ref.X[v] {
					t.Fatalf("%s n=%d p=%.2f k=%d: x[%d] fast=%v ref=%v sim=%v",
						name, n, p, k, v, fast[v], ref.X[v], simX[v])
				}
				refObj += ref.X[v]
				fastObj += fast[v]
			}
			if refObj != fastObj {
				t.Fatalf("%s: objective fast=%v ref=%v", name, fastObj, refObj)
			}
		}

		ref2, err := core.ReferenceKnownDelta(g, k)
		if err != nil {
			t.Fatal(err)
		}
		sim2, err := core.FractionalKnownDelta(g, k)
		if err != nil {
			t.Fatal(err)
		}
		fast2, err := s.Fractional(g, Options{K: k, Algorithm: Alg2})
		if err != nil {
			t.Fatal(err)
		}
		checkLP("alg2", fast2, ref2, sim2.X)

		ref3, err := core.Reference(g, k)
		if err != nil {
			t.Fatal(err)
		}
		sim3, err := core.Fractional(g, k)
		if err != nil {
			t.Fatal(err)
		}
		fast3, err := s.Fractional(g, Options{K: k, Algorithm: Alg3})
		if err != nil {
			t.Fatal(err)
		}
		checkLP("alg3", fast3, ref3, sim3.X)

		refW, err := core.ReferenceWeighted(g, k, costs)
		if err != nil {
			t.Fatal(err)
		}
		simW, err := core.FractionalWeighted(g, k, costs)
		if err != nil {
			t.Fatal(err)
		}
		fastW, err := s.Fractional(g, Options{K: k, Algorithm: AlgWeighted, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		checkLP("weighted", fastW, refW, simW.X)

		for _, variant := range []rounding.Variant{rounding.Ln, rounding.LnMinusLnLn} {
			seed := gseed ^ int64(kRaw)
			want, err := rounding.Reference(g, ref3.X, rounding.Options{Seed: seed, Variant: variant})
			if err != nil {
				t.Fatal(err)
			}
			simR, err := rounding.Round(g, ref3.X, rounding.Options{Seed: seed, Variant: variant})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Solve(g, Options{K: k, Algorithm: Alg3, Seed: seed, Variant: variant})
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != want.Size || got.JoinedRandom != want.JoinedRandom ||
				got.JoinedFixup != want.JoinedFixup || simR.Size != want.Size {
				t.Fatalf("rounding %v: fast (%d,%d,%d) sim size %d vs ref (%d,%d,%d)",
					variant, got.Size, got.JoinedRandom, got.JoinedFixup, simR.Size,
					want.Size, want.JoinedRandom, want.JoinedFixup)
			}
			if !slices.Equal(simR.InDS, want.InDS) {
				t.Fatalf("rounding %v: the sim set differs from the reference's", variant)
			}
			sameSet(t, fmt.Sprintf("rounding %v", variant), got.Set, want.InDS)
			testsupport.AssertDominatingSetPacked(t, "fastpath fuzz", g, got.Set)
		}

		// LP memo hits: meeting the same graph and LP configuration again —
		// after a standalone Round, after a different-seed Solve — skips the
		// LP stage and must return the same x. A weighted run whose cost
		// slice was rewritten in place must recompute, then hit in turn.
		if _, err := s.Round(g, ref3.X, Options{Seed: gseed}); err != nil {
			t.Fatal(err)
		}
		hit3, err := s.Fractional(g, Options{K: k, Algorithm: Alg3})
		if err != nil {
			t.Fatal(err)
		}
		checkLP("alg3 after round", hit3, ref3, sim3.X)
		if _, err := s.Solve(g, Options{K: k, Algorithm: Alg3, Seed: gseed + 1}); err != nil {
			t.Fatal(err)
		}
		hit3, err = s.Fractional(g, Options{K: k, Algorithm: Alg3})
		if err != nil {
			t.Fatal(err)
		}
		checkLP("alg3 after a different-seed solve", hit3, ref3, sim3.X)
		if _, err := s.Fractional(g, Options{K: k, Algorithm: AlgWeighted, Costs: costs}); err != nil {
			t.Fatal(err)
		}
		for v := range costs {
			costs[v] = 1 + float64((v*3+int(kRaw))%4)
		}
		refW2, err := core.ReferenceWeighted(g, k, costs)
		if err != nil {
			t.Fatal(err)
		}
		simW2, err := core.FractionalWeighted(g, k, costs)
		if err != nil {
			t.Fatal(err)
		}
		fastW2, err := s.Fractional(g, Options{K: k, Algorithm: AlgWeighted, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		checkLP("weighted after an in-place cost rewrite", fastW2, refW2, simW2.X)
		hitW, err := s.Solve(g, Options{K: k, Algorithm: AlgWeighted, Costs: costs, Seed: gseed + 2})
		if err != nil {
			t.Fatal(err)
		}
		checkLP("weighted hit after the rewrite", hitW.X, refW2, simW2.X)

		// Worker-count differential: the forked sweeps at a fuzz-derived
		// worker count must reproduce the plain solve bit for bit.
		opt := Options{K: k, Algorithm: Alg3, Seed: gseed ^ int64(kRaw), Variant: rounding.Ln}
		want, err := s.Solve(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantX := append([]float64(nil), want.X...)
		wantSet := append([]uint64(nil), want.Set...)
		opt.Workers = 1 + int(nRaw^kRaw)%4
		got, err := s.Solve(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if got.X[v] != wantX[v] {
				t.Fatalf("workers=%d: vertex %d diverges (x %v vs %v)", opt.Workers, v, got.X[v], wantX[v])
			}
		}
		if !slices.Equal(got.Set, wantSet) {
			t.Fatalf("workers=%d: the set diverges", opt.Workers)
		}
	})
}
