package kwbench

import (
	"strings"
	"testing"
)

// TestRunClosedBatched drives the batched closed loop with cross-checking
// on: every measured operation ran through DominatingSetMany in chunks, and
// every result is re-derived solo on the sim backend and compared — the run
// itself proves batch outputs are bit-identical to per-op solves.
func TestRunClosedBatched(t *testing.T) {
	sc := &Scenario{
		Name:       "test-batched",
		Driver:     DriverInprocFast,
		CrossCheck: true,
		Graphs:     []GraphSpec{{Gen: "udg:200:0.15:1", Name: "u"}, {Gen: "gnp:150:0.04:2", Name: "g"}},
		Matrix:     Matrix{Algos: []string{"kw", "kw2"}},
		Closed:     &ClosedLoop{Concurrency: 2, Ops: 24},
		BatchSize:  5, // deliberately not a divisor of ops: the tail chunk is short
		Seeds:      4,
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCommon(t, res, 24)
	if res.BatchSize != 5 {
		t.Errorf("batch_size = %d, want 5", res.BatchSize)
	}
	if res.CrossChecked != 24 || res.Mismatches != 0 {
		t.Errorf("cross-check %d/%d (batched solves diverged from solo)", res.Mismatches, res.CrossChecked)
	}
}

// TestRunClosedBatchSizeOne pins that batch_size ≤ 1 keeps the plain
// per-op loop and reports no batch_size field.
func TestRunClosedBatchSizeOne(t *testing.T) {
	sc := smokeClosed()
	sc.BatchSize = 1
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 0 {
		t.Errorf("batch_size = %d, want 0 (absent) for per-op runs", res.BatchSize)
	}
}

func TestRunLoad(t *testing.T) {
	sc := &Scenario{
		Name:   "test-load",
		Driver: DriverInprocFast,
		Load:   &LoadSpec{Gen: "udg:2000:0.04:3", Ops: 3, TextOps: 2},
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCommon(t, res, 3)
	if res.Loop != "load" {
		t.Fatalf("loop = %q, want load", res.Loop)
	}
	if len(res.Graphs) != 1 || res.Graphs[0].N != 2000 || res.Graphs[0].LoadMS <= 0 {
		t.Errorf("graph info: %+v", res.Graphs)
	}
	lc := res.Load
	if lc == nil {
		t.Fatal("missing load comparison block")
	}
	if lc.TextOps != 2 || lc.TextParseMS <= 0 || lc.BinaryLoadMS <= 0 || lc.BinaryVerifyMS <= 0 || lc.Speedup <= 0 {
		t.Errorf("degenerate load comparison: %+v", lc)
	}
	if lc.TextBytes <= 0 || lc.BinaryBytes <= 0 {
		t.Errorf("missing file sizes: %+v", lc)
	}
	// The result must survive report validation (the "load" loop shape).
	rep := &Report{Schema: SchemaVersion, Description: "x", Scenarios: []ScenarioResult{*res}}
	if err := ValidateReport(rep); err != nil {
		t.Errorf("load result fails report validation: %v", err)
	}
}

func TestRunLoadTier(t *testing.T) {
	sc := &Scenario{
		Name:   "test-load-tier",
		Driver: DriverInprocFast,
		Load:   &LoadSpec{Tier: "udg-500", Ops: 20},
	}
	res, err := Run(sc, RunOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 8 {
		t.Errorf("quick ops = %d, want floor of 8", res.Ops)
	}
	if res.Graphs[0].Name != "udg-500" || res.Graphs[0].N != 500 {
		t.Errorf("tier identity: %+v", res.Graphs)
	}
}

func TestBatchAndLoadSpecValidation(t *testing.T) {
	closed := &ClosedLoop{Concurrency: 1, Ops: 4}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"batch on sim driver", func(sc *Scenario) { sc.Driver = DriverInprocSim; sc.BatchSize = 4 }, "batch_size > 1 requires"},
		{"batch with open loop", func(sc *Scenario) { sc.Closed = nil; sc.Open = &OpenLoop{Rate: 10, DurationSec: 1}; sc.BatchSize = 4 }, "requires a closed loop"},
		{"batch with kwcds", func(sc *Scenario) { sc.BatchSize = 4; sc.Matrix.Algos = []string{"kwcds"} }, "supports algos kw|kw2"},
		{"negative batch", func(sc *Scenario) { sc.BatchSize = -1 }, "batch_size must be"},
		{"load with graphs list", func(sc *Scenario) { sc.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}; sc.Closed = nil }, "drop the graphs list"},
		{"load with loop", func(sc *Scenario) { sc.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}; sc.Graphs = nil }, "no loop spec"},
		{"load on sim driver", func(sc *Scenario) {
			sc.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}
			sc.Graphs, sc.Closed, sc.Driver = nil, nil, DriverInprocSim
		}, "require the inproc-fast driver"},
		{"load tier+gen both", func(sc *Scenario) {
			sc.Load = &LoadSpec{Tier: "udg-500", Gen: "udg:100:0.2:1", Ops: 1}
			sc.Graphs, sc.Closed = nil, nil
		}, "exactly one of tier and gen"},
		{"load bad tier", func(sc *Scenario) {
			sc.Load = &LoadSpec{Tier: "udg-9z", Ops: 1}
			sc.Graphs, sc.Closed = nil, nil
		}, "bad tier"},
		{"load zero ops", func(sc *Scenario) {
			sc.Load = &LoadSpec{Gen: "udg:100:0.2:1"}
			sc.Graphs, sc.Closed = nil, nil
		}, "ops ≥ 1"},
		{"load with cross_check", func(sc *Scenario) {
			sc.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}
			sc.Graphs, sc.Closed, sc.CrossCheck = nil, nil, true
		}, "no batch_size, cross_check, http or reorder"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := &Scenario{
				Name:   "v",
				Driver: DriverInprocFast,
				Graphs: []GraphSpec{{Gen: "udg:100:0.2:1"}},
				Closed: closed,
			}
			c.mut(sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}

	// And the valid shapes must pass.
	good := &Scenario{
		Name:      "b",
		Driver:    DriverInprocFast,
		Graphs:    []GraphSpec{{Gen: "udg:100:0.2:1"}},
		Closed:    closed,
		BatchSize: 8,
		Matrix:    Matrix{Algos: []string{"kw", "kw2"}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid batch spec rejected: %v", err)
	}
	goodLoad := &Scenario{
		Name:   "l",
		Driver: DriverInprocFast,
		Load:   &LoadSpec{Tier: "udg-500", Ops: 5, TextOps: 2},
	}
	if err := goodLoad.Validate(); err != nil {
		t.Errorf("valid load spec rejected: %v", err)
	}
}
