package kwmds

import (
	"errors"
	"strings"
	"testing"

	"kwmds/internal/testsupport"
)

// TestDominatingSetMany: every batch element must equal the corresponding
// solo DominatingSet call bit for bit, across LP-configuration switches.
func TestDominatingSetMany(t *testing.T) {
	g, err := UnitDisk(200, 0.12, 41)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.N())
	for i := range weights {
		weights[i] = 1 + float64(i%5)
	}
	optsList := []Options{
		{Seed: 1, Sequential: true},
		{Seed: 2, Sequential: true},
		{Seed: 2, K: 4, Sequential: true},
		{Seed: 2, K: 4, KnownDelta: true, Sequential: true},
		{Seed: 3, K: 4, KnownDelta: true, Variant: VariantLnMinusLnLn, Sequential: true},
		{Seed: 3, K: 3, Weights: weights, Sequential: true},
		{Seed: 9, Sequential: true},
	}
	batch, err := DominatingSetMany(g, optsList)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(optsList) {
		t.Fatalf("got %d results for %d elements", len(batch), len(optsList))
	}
	for i, opts := range optsList {
		solo, err := DominatingSet(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		testsupport.AssertDominatingSet(t, "batch element", g, got.InDS)
		if got.Size != solo.Size || got.K != solo.K ||
			got.JoinedRandom != solo.JoinedRandom || got.JoinedFixup != solo.JoinedFixup ||
			got.LPObjective != solo.LPObjective || got.WeightedCost != solo.WeightedCost {
			t.Fatalf("element %d: batch (size=%d k=%d jr=%d jf=%d lp=%v cost=%v) != solo (size=%d k=%d jr=%d jf=%d lp=%v cost=%v)",
				i, got.Size, got.K, got.JoinedRandom, got.JoinedFixup, got.LPObjective, got.WeightedCost,
				solo.Size, solo.K, solo.JoinedRandom, solo.JoinedFixup, solo.LPObjective, solo.WeightedCost)
		}
		for v := range solo.InDS {
			if got.InDS[v] != solo.InDS[v] {
				t.Fatalf("element %d: inDS[%d] mismatch", i, v)
			}
			if got.Fractional[v] != solo.Fractional[v] {
				t.Fatalf("element %d: fractional[%d] = %v, solo %v", i, v, got.Fractional[v], solo.Fractional[v])
			}
		}
	}
}

func TestDominatingSetManyValidation(t *testing.T) {
	g, err := Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := DominatingSetMany(g, nil); err != nil || res != nil {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	bad := []Options{{Sequential: true}, {K: -2, Sequential: true}}
	if _, err := DominatingSetMany(g, bad); err == nil || !strings.Contains(err.Error(), "element 1") {
		t.Fatalf("invalid element not rejected with index: %v", err)
	}
	closed := make(chan struct{})
	close(closed)
	canceled := []Options{{Sequential: true}, {Sequential: true, Cancel: closed}}
	if _, err := DominatingSetMany(g, canceled); !errors.Is(err, ErrCanceled) || !strings.Contains(err.Error(), "element 1") {
		t.Fatalf("canceled element: err = %v, want ErrCanceled naming element 1", err)
	}
}
