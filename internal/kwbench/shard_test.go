package kwbench

import (
	"strings"
	"testing"
)

// TestRunShardSweepInproc runs a shards sweep on the inproc-fast driver with
// cross-checking: every sharded arm's operations are re-solved on the
// unsharded path and compared, so the run itself proves the shard count
// never affects output.
func TestRunShardSweepInproc(t *testing.T) {
	sc := &Scenario{
		Name:       "test-shard-sweep",
		Driver:     DriverInprocFast,
		CrossCheck: true,
		Graphs:     []GraphSpec{{Gen: "udg:300:0.12:1", Name: "u"}, {Gen: "gnp:250:0.03:2", Name: "g"}},
		Matrix:     Matrix{Algos: []string{"kw", "kw2"}},
		Closed:     &ClosedLoop{Concurrency: 2, Ops: 16},
		Shards:     []int{1, 2, 4},
		Seeds:      3,
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 {
		t.Errorf("main block shards = %d, want 4 (last sweep entry)", res.Shards)
	}
	if len(res.ShardSweep) != 3 {
		t.Fatalf("sweep rows = %d, want 3", len(res.ShardSweep))
	}
	for i, want := range []int{1, 2, 4} {
		row := res.ShardSweep[i]
		if row.Shards != want || row.Ops != 16 || row.OpsPerSec <= 0 || row.P50 <= 0 {
			t.Errorf("sweep row %d degenerate: %+v", i, row)
		}
	}
	if res.CrossChecked != 16 || res.Mismatches != 0 {
		t.Errorf("cross-check %d/%d (sharded arm diverged from the 1-shard path)", res.Mismatches, res.CrossChecked)
	}
	// The result must survive report validation with its sweep block.
	rep := &Report{Schema: SchemaVersion, Description: "x", Scenarios: []ScenarioResult{*res}}
	if err := ValidateReport(rep); err != nil {
		t.Errorf("sharded result fails report validation: %v", err)
	}
}

// TestRunShardSweepServe runs the sweep through the http-serve driver: the
// spawned server is sized with server.Config.Shards per arm.
func TestRunShardSweepServe(t *testing.T) {
	sc := &Scenario{
		Name:   "test-shard-serve",
		Driver: DriverHTTPServe,
		Graphs: []GraphSpec{{Gen: "udg:300:0.12:1", Name: "u"}},
		Closed: &ClosedLoop{Concurrency: 2, Ops: 12},
		Shards: []int{1, 2},
		Seeds:  6, // rotate seeds so most measured ops are cold (the sharded path)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 2 || len(res.ShardSweep) != 2 {
		t.Fatalf("sweep shape: shards=%d rows=%d", res.Shards, len(res.ShardSweep))
	}
	for i, row := range res.ShardSweep {
		if row.OpsPerSec <= 0 {
			t.Errorf("sweep row %d degenerate: %+v", i, row)
		}
	}
}

func TestShardSpecValidation(t *testing.T) {
	closed := &ClosedLoop{Concurrency: 1, Ops: 4}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"shards on sim driver", func(sc *Scenario) { sc.Driver = DriverInprocSim; sc.Shards = []int{2} }, "no sharded engine"},
		{"shards with open loop", func(sc *Scenario) {
			sc.Closed = nil
			sc.Open = &OpenLoop{Rate: 10, DurationSec: 1}
			sc.Shards = []int{2}
		}, "require a closed loop"},
		{"shards with frac", func(sc *Scenario) { sc.Shards = []int{2}; sc.Matrix.Algos = []string{"frac"} }, "support algos kw|kw2"},
		{"shards with batch", func(sc *Scenario) { sc.Shards = []int{2}; sc.BatchSize = 4 }, "mutually exclusive"},
		{"shard count zero", func(sc *Scenario) { sc.Shards = []int{0} }, "outside [1,"},
		{"shards with remote url", func(sc *Scenario) {
			sc.Driver = DriverHTTPServe
			sc.Shards = []int{2}
			sc.HTTP = &HTTPSpec{URL: "http://example.invalid"}
		}, "remote target"},
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
}
