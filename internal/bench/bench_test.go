package bench

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick smoke-tests every experiment runner at reduced
// scale and validates the tables' basic shape.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	cfg := QuickConfig()
	for _, r := range Runners() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tables := r.Run(cfg)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", r.ID)
			}
			for _, tb := range tables {
				if tb.NumRows() == 0 {
					t.Errorf("%s: table %q is empty", r.ID, tb.Title)
				}
				md := tb.Markdown()
				if !strings.Contains(md, "|") {
					t.Errorf("%s: markdown rendering broken", r.ID)
				}
			}
		})
	}
}

// TestBoundsHoldInTables re-checks the T1/T2 tables row by row: every
// solution is feasible, the measured ratio stays within the bound column
// beside it, and the round count equals the paper's formula column — 2k²
// for Algorithm 2 (Theorem 4), 4k²+2k+2 for Algorithm 3 (Theorem 5) — which
// itself must match that formula at the row's k. Float cells are rounded
// to 4 significant digits, and rounding is monotone, so comparing the
// parsed cells is sound.
func TestBoundsHoldInTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	rounds := map[string]func(k int) int{
		"T1": func(k int) int { return 2 * k * k },
		"T2": func(k int) int { return 4*k*k + 2*k + 2 },
	}
	for _, id := range []string{"T1", "T2"} {
		for _, tb := range Run(id, QuickConfig()) {
			if tb.NumRows() == 0 {
				t.Errorf("%s: table %q is empty", id, tb.Title)
			}
			for i := 0; i < tb.NumRows(); i++ {
				// Columns: graph, n, Δ, k(3), Σx, LP_OPT, ratio(6),
				// bound(7), rounds(8), formula(9), feasible(10).
				row := tb.Row(i)
				if len(row) != 11 {
					t.Fatalf("%s row %d: %d columns, want 11: %v", id, i, len(row), row)
				}
				num := func(col int) float64 {
					v, err := strconv.ParseFloat(row[col], 64)
					if err != nil {
						t.Fatalf("%s row %d column %q: %v", id, i, tb.Columns[col], err)
					}
					return v
				}
				k, ratio, bound, got, formula := num(3), num(6), num(7), num(8), num(9)
				if ratio > bound {
					t.Errorf("%s row %d: ratio %v exceeds bound %v: %v", id, i, ratio, bound, row)
				}
				if got != formula {
					t.Errorf("%s row %d: %v rounds, formula column says %v: %v", id, i, got, formula, row)
				}
				if want := rounds[id](int(k)); formula != float64(want) {
					t.Errorf("%s row %d: formula column %v, want %d at k = %v: %v", id, i, formula, want, k, row)
				}
				if row[10] != "true" {
					t.Errorf("%s row %d: infeasible solution: %v", id, i, row)
				}
			}
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if tables := Run("nope", QuickConfig()); tables != nil {
		t.Error("unknown id should return nil")
	}
}

func TestWorkloadsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range append(append(Small(), Tiny()...), Medium(true)...) {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.G.N() == 0 {
			t.Errorf("workload %q is empty", w.Name)
		}
	}
}

func TestCascadeGraphShape(t *testing.T) {
	g, tiers := cascadeGraph()
	if g.MaxDegree() != 80 {
		t.Errorf("cascade ∆ = %d, want 80 (so (∆+1)^{1/4} = 3 exactly)", g.MaxDegree())
	}
	counts := map[int]int{}
	for _, tier := range tiers {
		counts[tier]++
	}
	if counts[-1] != 30 {
		t.Errorf("hubs = %d, want 30", counts[-1])
	}
	for _, tier := range []int{0, 1, 2} {
		if counts[tier] != 20 {
			t.Errorf("tier %d has %d clients, want 20", tier, counts[tier])
		}
	}
	if !g.IsConnected() {
		// Hubs share clients only in tiers; hubs 27..29 have no clients —
		// they are their own components, which is fine for the cascade.
		t.Log("cascade graph is disconnected by design (leaf-only hubs)")
	}
}

// TestLargeEndToEndSimulated is the engine-scaling acceptance check: a
// 100k-node end-to-end DominatingSet run must complete in the simulated
// (message-passing) mode, not just via the sequential references, and
// produce a valid dominating set.
func TestLargeEndToEndSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n engine scaling run")
	}
	tables := L1(false)
	if len(tables) != 1 || tables[0].NumRows() == 0 {
		t.Fatalf("L1 produced no rows")
	}
	t.Logf("\n%s", tables[0].Plain())
}
