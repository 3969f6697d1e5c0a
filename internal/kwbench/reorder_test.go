package kwbench

import (
	"strings"
	"testing"
)

// TestRunReorderSched runs the memory-locality knob end to end: a reordered
// closed loop of two concurrent operations, with the per-op sim cross-check
// on — the harness-level enforcement that relabeling never changes an
// output.
func TestRunReorderSched(t *testing.T) {
	sc := &Scenario{
		Name:       "test-reorder",
		Driver:     DriverInprocFast,
		Graphs:     []GraphSpec{{Gen: "ba:300:3:9", Name: "ba-300"}},
		Matrix:     Matrix{Algos: []string{"kw", "kw2"}},
		Closed:     &ClosedLoop{Concurrency: 2, Ops: 16},
		Seeds:      4,
		Reorder:    true,
		CrossCheck: true,
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCommon(t, res, 16)
	if res.CrossChecked != 16 || res.Mismatches != 0 {
		t.Errorf("cross-checked %d with %d mismatches", res.CrossChecked, res.Mismatches)
	}
}

func TestReorderSchedSpecValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:   "v",
			Driver: DriverInprocFast,
			Graphs: []GraphSpec{{Gen: "ba:100:2:1"}},
			Closed: &ClosedLoop{Concurrency: 1, Ops: 4},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"reorder on http driver", func(sc *Scenario) { sc.Driver = DriverHTTPServe; sc.Reorder = true }, "requires the inproc-fast driver"},
		{"reorder with kwcds", func(sc *Scenario) { sc.Reorder = true; sc.Matrix.Algos = []string{"kwcds"} }, "kw|kw2|frac"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
	good := base()
	good.Reorder = true
	if err := good.Validate(); err != nil {
		t.Fatalf("valid reorder spec rejected: %v", err)
	}
	// sched is not a spec field: a stale spec that sets it must fail at
	// load, not run silently.
	spec := "name = \"v\"\ndriver = \"inproc-fast\"\nsched = \"steal\"\n[[graphs]]\ngen = \"ba:100:2:1\"\n[closed]\nconcurrency = 1\nops = 4\n"
	if _, err := Decode([]byte(spec), true); err == nil || !strings.Contains(err.Error(), "sched") {
		t.Fatalf("spec with a sched key: err = %v, want an unknown-field refusal", err)
	}
}
