package kwmds

import (
	"errors"
	"testing"

	"kwmds/internal/testsupport"
)

// TestReorderBitIdentical locks the core contract of the degree-ordered
// execution path at the facade level: attaching a ReorderedGraph changes
// memory traversal order only, never an output, for every algorithm the
// facade exposes — including ConnectedDominatingSet, whose connector
// stage runs over the original graph after the reordered pipeline.
func TestReorderBitIdentical(t *testing.T) {
	g, err := PrefAttach(400, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	rl := Reorder(g)
	solvers := []struct {
		name string
		run  func(Options) (*Result, error)
	}{
		{"kw", func(o Options) (*Result, error) { return DominatingSet(g, o) }},
		{"kwcds", func(o Options) (*Result, error) { return ConnectedDominatingSet(g, o) }},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				plain, err := s.run(Options{K: 3, Seed: seed, Sequential: true})
				if err != nil {
					t.Fatal(err)
				}
				reord, err := s.run(Options{K: 3, Seed: seed, Sequential: true, Reordered: rl})
				if err != nil {
					t.Fatal(err)
				}
				testsupport.RequireBitIdentical(t, reord, plain)
			}
		})
	}
	t.Run("frac", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			plain, err := FractionalDominatingSet(g, Options{K: 3, Seed: seed, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			reord, err := FractionalDominatingSet(g, Options{K: 3, Seed: seed, Sequential: true, Reordered: rl})
			if err != nil {
				t.Fatal(err)
			}
			testsupport.RequireBitIdentical(t, reord, plain)
		}
	})
}

func TestReorderValidation(t *testing.T) {
	g, err := UnitDisk(60, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	other, err := UnitDisk(60, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rl := Reorder(other)
	cases := []struct {
		name string
		opts Options
	}{
		{"without sequential", Options{Reordered: Reorder(g)}},
		{"foreign graph", Options{Sequential: true, Reordered: rl}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DominatingSet(g, tc.opts); !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("got %v, want ErrInvalidOptions", err)
			}
		})
	}
}
