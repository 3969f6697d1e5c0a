package kwbench

import (
	"strings"
	"testing"
)

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

func TestLoadSpecValidation(t *testing.T) {
	closed := &ClosedLoop{Concurrency: 1, Ops: 4}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"load with graphs list", func(sc *Scenario) { sc.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}; sc.Closed = nil }, "drop the graphs list"},
		{"load with loop", func(sc *Scenario) { sc.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}; sc.Graphs = nil }, "no loop spec"},
		{"load on sim driver", func(sc *Scenario) {
			sc.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}
			sc.Graphs, sc.Closed, sc.Driver = nil, nil, "inproc-sim"
		}, `unknown driver "inproc-sim"`},
		{"load on http driver", func(sc *Scenario) {
			sc.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}
			sc.Graphs, sc.Closed, sc.Driver = nil, nil, DriverHTTPServe
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
		}, "no cross_check or http"},
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

	// And the valid shape must pass.
	goodLoad := &Scenario{
		Name:   "l",
		Driver: DriverInprocFast,
		Load:   &LoadSpec{Tier: "udg-500", Ops: 5, TextOps: 2},
	}
	if err := goodLoad.Validate(); err != nil {
		t.Errorf("valid load spec rejected: %v", err)
	}
}
