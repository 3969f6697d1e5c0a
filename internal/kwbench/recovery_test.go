package kwbench

import (
	"path/filepath"
	"strings"
	"testing"
)

func smokeRecovery() *Scenario {
	return &Scenario{
		Name:     "test-recovery",
		Driver:   DriverInprocFast,
		Matrix:   Matrix{Algos: []string{"kw2"}},
		Recovery: &RecoverySpec{N: 120, Radius: 0.15, Speed: 0.04, Epochs: 6, Seed: 3, Restarts: 3},
	}
}

func TestValidateBadRecoverySpecs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string
	}{
		{"loop spec", func(s *Scenario) { s.Closed = &ClosedLoop{Concurrency: 1, Ops: 1} }, "no loop spec"},
		{"graphs list", func(s *Scenario) { s.Graphs = []GraphSpec{{Gen: "udg:100:0.2:1"}} }, "drop the graphs list"},
		{"sim driver", func(s *Scenario) { s.Driver = "inproc-sim" }, `unknown driver "inproc-sim"`},
		{"http driver", func(s *Scenario) { s.Driver = DriverHTTPServe }, "require the inproc-fast driver"},
		{"mobility too", func(s *Scenario) {
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 2}
		}, "recovery and mobility are mutually exclusive"},
		{"load too", func(s *Scenario) {
			s.Recovery = nil
			s.Load = &LoadSpec{Gen: "udg:100:0.2:1", Ops: 1}
			s.Recovery = smokeRecovery().Recovery
		}, "load and recovery are mutually exclusive"},
		{"frac algo", func(s *Scenario) { s.Matrix.Algos = []string{"frac"} }, "algos kw|kw2"},
		{"two combos", func(s *Scenario) { s.Matrix.Algos = []string{"kw", "kw2"} }, "exactly one matrix combo"},
		{"cross check", func(s *Scenario) { s.CrossCheck = true }, "no cross_check or http"},
		{"zero epochs", func(s *Scenario) { s.Recovery.Epochs = 0 }, "bad recovery parameters"},
		{"zero n", func(s *Scenario) { s.Recovery.N = 0 }, "bad recovery parameters"},
		{"negative restarts", func(s *Scenario) { s.Recovery.Restarts = -1 }, "must be ≥ 0"},
		{"warmup eats restarts", func(s *Scenario) { s.WarmupOps = 3 }, "consumes every one"},
		{"warmup eats default restarts", func(s *Scenario) {
			s.Recovery.Restarts = 0
			s.WarmupOps = 3
		}, "consumes every one"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := smokeRecovery()
			tc.mutate(sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestRunRecovery(t *testing.T) {
	sc := smokeRecovery()
	sc.WarmupOps = 1
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCommon(t, res, 2) // 3 restarts, 1 warmup
	if res.Loop != "recovery" {
		t.Errorf("loop = %q, want recovery", res.Loop)
	}
	r := res.Recovery
	if r == nil {
		t.Fatal("no recovery block")
	}
	if r.Epochs != 6 || r.Restarts != 3 {
		t.Errorf("recovery counts: %+v", *r)
	}
	// No snapshot policy: every restart replays the whole history from the
	// epoch-0 snapshot.
	if r.SnapshotEpoch != 0 || r.ReplayedEpochs != 6 {
		t.Errorf("replay accounting: %+v", *r)
	}
	if r.RecoveryMS <= 0 || r.WALBytes <= 0 || r.SnapshotBytes <= 0 || r.AppendMS <= 0 {
		t.Errorf("degenerate recovery block: %+v", *r)
	}
	if r.MeanEdgeDeltas <= 0 {
		t.Errorf("no edge churn measured: %+v", *r)
	}
	if res.ColdMS <= 0 {
		t.Errorf("warmup restart did not set cold_ms: %+v", res)
	}

	// The result must survive the report schema gate.
	rep := &Report{
		Schema:      SchemaVersion,
		Description: "test",
		Scenarios:   []ScenarioResult{*res},
	}
	if err := ValidateReport(rep); err != nil {
		t.Fatalf("recovery result fails report validation: %v", err)
	}
}

func TestRunRecoveryWithSnapshots(t *testing.T) {
	sc := smokeRecovery()
	sc.Recovery.Epochs = 9
	sc.Recovery.SnapshotEveryEpochs = 4
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Recovery
	// Rotations at epochs 4 and 8 leave a snapshot at 8 with one record on
	// top — recovery replays the tail, not the history.
	if r.SnapshotEpoch != 8 || r.ReplayedEpochs != 1 {
		t.Errorf("snapshot-anchored recovery accounting: %+v", *r)
	}
}

func TestRecoveryScenarioFiles(t *testing.T) {
	for _, f := range []string{"recovery-udg10k.toml", "recovery-smoke.toml"} {
		sc, err := Load(filepath.Join("..", "..", "scenarios", f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if sc.Recovery == nil {
			t.Fatalf("%s: not a recovery scenario", f)
		}
	}
	if testing.Short() {
		t.Skip("short mode: scenario execution")
	}
	sc, err := Load(filepath.Join("..", "..", "scenarios", "recovery-smoke.toml"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || res.Recovery.RecoveryMS <= 0 {
		t.Fatalf("degenerate smoke result: %+v", res)
	}
}
