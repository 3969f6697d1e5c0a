package kwbench

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func smokeClosed() *Scenario {
	return &Scenario{
		Name:   "test-closed",
		Driver: DriverInprocFast,
		Graphs: []GraphSpec{{Gen: "udg:200:0.15:1", Name: "udg-200"}, {Gen: "gnp:150:0.04:2", Name: "gnp-150"}},
		Closed: &ClosedLoop{Concurrency: 3, Ops: 24},
		Seeds:  4,
	}
}

func checkCommon(t *testing.T, res *ScenarioResult, wantOps int) {
	t.Helper()
	if res.Ops != wantOps {
		t.Errorf("ops = %d, want %d", res.Ops, wantOps)
	}
	if res.ElapsedSec <= 0 || res.OpsPerSec <= 0 {
		t.Errorf("degenerate timing: %+v", res)
	}
	l := res.Latency
	if !(l.Min <= l.P50 && l.P50 <= l.P99 && l.P999 <= l.Max) {
		t.Errorf("bad percentiles: %+v", l)
	}
	if l.Max <= 0 {
		t.Errorf("zero max latency")
	}
	if res.AllocsPerOp < 0 {
		t.Errorf("negative allocs/op")
	}
}

func TestRunClosedInproc(t *testing.T) {
	sc := smokeClosed()
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCommon(t, res, 24)
	if res.Loop != "closed" || res.Concurrency != 3 {
		t.Errorf("loop metadata: %+v", res)
	}
	if len(res.Graphs) != 2 || res.Graphs[0].Name != "udg-200" || res.Graphs[0].N != 200 {
		t.Errorf("graph info: %+v", res.Graphs)
	}
}

func TestRunClosedWarmupCountsSeparately(t *testing.T) {
	sc := smokeClosed()
	sc.WarmupOps = 6
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCommon(t, res, 24) // warmup ops are extra, not carved out
	if res.WarmupOps != 6 {
		t.Errorf("warmup_ops = %d", res.WarmupOps)
	}
}

func TestRunOpenLoop(t *testing.T) {
	sc := &Scenario{
		Name:   "test-open",
		Driver: DriverInprocFast,
		Graphs: []GraphSpec{{Gen: "udg:200:0.15:1"}},
		Open:   &OpenLoop{Rate: 300, DurationSec: 0.3, MaxInflight: 16},
		Seeds:  3,
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loop != "open" || res.TargetRate != 300 {
		t.Errorf("open metadata: %+v", res)
	}
	if res.Ops < 10 {
		t.Errorf("open loop dispatched only %d ops", res.Ops)
	}
	if res.AchievedRate <= 0 {
		t.Errorf("achieved rate = %v", res.AchievedRate)
	}
	checkCommon(t, res, res.Ops)
}

func TestRunHTTPServeDriver(t *testing.T) {
	sc := &Scenario{
		Name:      "test-http",
		Driver:    DriverHTTPServe,
		Graphs:    []GraphSpec{{Gen: "udg:200:0.15:1", Name: "u"}},
		Closed:    &ClosedLoop{Concurrency: 4, Ops: 40},
		WarmupOps: 4,
		Seeds:     1,
		HTTP:      &HTTPSpec{Workers: 2},
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCommon(t, res, 40)
	if res.HitRate == nil {
		t.Fatal("http-serve spawned driver must report a hit rate")
	}
	// One seed + warmup, and the hit rate covers the *measured* phase
	// only (warmup misses are excluded at the MarkWarm boundary): every
	// measured request is a cache hit.
	if *res.HitRate != 1 {
		t.Errorf("hit rate = %v, want exactly 1 (measured phase is cache-resident)", *res.HitRate)
	}
	if res.ColdMS <= 0 {
		t.Errorf("cold_ms = %v, want > 0 (first warmup request is timed)", res.ColdMS)
	}
}

// errRefused is failingDriver's operation error.
var errRefused = errors.New("backend refused the operation")

// failingDriver is a backend that fails every operation, counting them.
type failingDriver struct{ calls atomic.Int64 }

func (d *failingDriver) Prepare([]LoadedGraph) error { return nil }
func (d *failingDriver) Close() error                { return nil }
func (d *failingDriver) Do(Request) (OpResult, error) {
	d.calls.Add(1)
	return OpResult{}, errRefused
}

// TestRunFailsFastOnError checks that an operation error aborts the run
// promptly instead of burning the remaining schedule: against a backend
// that fails every operation, each closed-loop worker stops at its first
// error and the scenario fails with that error.
func TestRunFailsFastOnError(t *testing.T) {
	sc := &Scenario{
		Name:   "test-dead-target",
		Closed: &ClosedLoop{Concurrency: 2, Ops: 10000},
	}
	d := &failingDriver{}
	err := runClosed(sc, RunOptions{}, d, make([]LoadedGraph, 1), &ScenarioResult{})
	if !errors.Is(err, errRefused) {
		t.Fatalf("err = %v, want the operation error", err)
	}
	if calls := d.calls.Load(); calls > int64(sc.Closed.Concurrency) {
		t.Fatalf("%d operations ran after the first error — not failing fast", calls)
	}
}

func TestRunCrossCheck(t *testing.T) {
	sc := &Scenario{
		Name:       "test-crosscheck",
		Driver:     DriverInprocFast,
		CrossCheck: true,
		Graphs:     []GraphSpec{{Gen: "udg:120:0.2:1"}},
		Matrix:     Matrix{Algos: []string{"kw", "kw2"}, Variants: []string{"ln", "ln-lnln"}},
		Closed:     &ClosedLoop{Concurrency: 2, Ops: 8},
		Seeds:      4,
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossChecked != 8 {
		t.Errorf("cross_checked = %d, want 8", res.CrossChecked)
	}
	if res.Mismatches != 0 {
		t.Errorf("mismatches = %d (bit-identical contract broken)", res.Mismatches)
	}
}

// TestSameAnswer pins the cross-check's comparison: a same-size answer
// with one member moved is a mismatch, not only a size difference.
func TestSameAnswer(t *testing.T) {
	want := OpResult{Size: 2, InDS: []bool{true, false, true, false}}
	for _, tc := range []struct {
		name string
		got  OpResult
		same bool
	}{
		{"equal sets", OpResult{Size: 2, InDS: []bool{true, false, true, false}}, true},
		{"one member moved", OpResult{Size: 2, InDS: []bool{true, false, false, true}}, false},
		{"size differs", OpResult{Size: 3, InDS: []bool{true, true, true, false}}, false},
	} {
		if got := sameAnswer(tc.got, want); got != tc.same {
			t.Errorf("%s: sameAnswer = %v, want %v", tc.name, got, tc.same)
		}
	}
}

// TestRunMobilityReplay checks a mobility scenario's loop label and its
// churn accounting over a moving trace.
func TestRunMobilityReplay(t *testing.T) {
	sc := &Scenario{
		Name:      "test-mobility",
		Driver:    DriverInprocFast,
		WarmupOps: 1,
		Mobility:  &MobilitySpec{N: 150, Radius: 0.15, Speed: 0.02, Epochs: 5, Seed: 3, Mode: MobilityRebuild},
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loop != "replay" {
		t.Fatalf("loop = %q", res.Loop)
	}
	checkCommon(t, res, 4) // 5 epochs − 1 warmup, one combo
	m := res.Mobility
	if m == nil || m.Epochs != 5 {
		t.Fatalf("mobility block: %+v", m)
	}
	// A moving topology re-elects: with speed 0.02 some churn must occur
	// across 4 transitions, and edge churn must be in (0, 1).
	if m.MeanAdded+m.MeanRemoved == 0 {
		t.Errorf("no set churn over a moving trace: %+v", m)
	}
	if m.MeanEdgeChurn <= 0 || m.MeanEdgeChurn >= 1 {
		t.Errorf("edge churn = %v, want (0, 1)", m.MeanEdgeChurn)
	}
}

// TestRunMobilityDynamicModes drives the rebuild and churn epoch-op modes
// over the same trace with cross-checking on: every epoch's dominating set
// is re-derived on the sim backend and compared, so the run itself proves
// the mutation-API path produces the sets a from-scratch pipeline would.
func TestRunMobilityDynamicModes(t *testing.T) {
	base := func(mode string) *Scenario {
		return &Scenario{
			Name:       "test-mobility-" + mode,
			Driver:     DriverInprocFast,
			WarmupOps:  1,
			CrossCheck: true,
			Mobility:   &MobilitySpec{N: 300, Radius: 0.1, Speed: 0.01, Epochs: 6, Seed: 3, Mode: mode},
		}
	}
	rebuild, err := Run(base(MobilityRebuild), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := Run(base(MobilityChurn), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*ScenarioResult{rebuild, churn} {
		checkCommon(t, res, 5) // 6 epochs − 1 warmup, one combo
		if res.Loop != "replay" || res.Mobility == nil {
			t.Fatalf("metadata: %+v", res)
		}
		if res.CrossChecked != 6 || res.Mismatches != 0 {
			t.Fatalf("cross-check %d/%d", res.Mismatches, res.CrossChecked)
		}
		if res.ColdMS <= 0 {
			t.Errorf("missing cold epoch latency")
		}
	}
	if rebuild.Mobility.Mode != MobilityRebuild || churn.Mobility.Mode != MobilityChurn {
		t.Fatalf("modes: %q / %q", rebuild.Mobility.Mode, churn.Mobility.Mode)
	}
	m := churn.Mobility
	if m.MeanEdgeDeltas <= 0 || m.MeanCommitMS <= 0 || m.MeanLPMS == nil || *m.MeanLPMS <= 0 ||
		m.MeanRoundMS == nil || *m.MeanRoundMS <= 0 {
		t.Errorf("churn accounting missing: %+v", m)
	} else if sum := m.MeanCommitMS + *m.MeanLPMS + *m.MeanRoundMS; math.Abs(sum-churn.Latency.Mean) > 0.01*churn.Latency.Mean {
		t.Errorf("commit + LP + rounding = %v ms, mean op %v ms", sum, churn.Latency.Mean)
	}
	if rebuild.Mobility.MeanLPMS != nil || rebuild.Mobility.MeanRoundMS != nil {
		t.Errorf("rebuild row carries churn stage means: %+v", rebuild.Mobility)
	}
	// Same trace, same pipeline: the two modes must elect identically
	// (their per-epoch sizes are both pinned to the sim backend above),
	// and see the same topology motion.
	if rebuild.Mobility.MeanEdgeChurn != churn.Mobility.MeanEdgeChurn {
		t.Errorf("edge churn differs: %v vs %v", rebuild.Mobility.MeanEdgeChurn, churn.Mobility.MeanEdgeChurn)
	}
	if rebuild.Mobility.MeanAdded != churn.Mobility.MeanAdded ||
		rebuild.Mobility.MeanRemoved != churn.Mobility.MeanRemoved {
		t.Errorf("set churn differs between modes: %+v vs %+v", rebuild.Mobility, churn.Mobility)
	}
}

func TestRunQuickShrinksLoad(t *testing.T) {
	sc := smokeClosed()
	sc.Closed.Ops = 200
	res, err := Run(sc, RunOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 20 {
		t.Errorf("quick ops = %d, want 200/10", res.Ops)
	}
}

// TestRequestScheduleDeterministic pins the workload-construction contract:
// the same spec yields the identical operation stream.
func TestRequestScheduleDeterministic(t *testing.T) {
	sc := smokeClosed()
	sc.Select = "zipfian"
	sc.Theta = 1.4
	a := buildRequests(sc, 2, 50)
	b := buildRequests(sc, 2, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Zipfian selection must actually skew toward graph 0.
	count0 := 0
	for _, r := range a {
		if r.Graph == 0 {
			count0++
		}
	}
	if count0 <= len(a)/2 {
		t.Errorf("zipfian skew missing: graph 0 chosen %d/%d", count0, len(a))
	}
}

// TestRunScenarioFilesSmoke runs the two CI smoke scenarios end to end in
// quick mode — the same pair the CI bench job executes via kwmds bench.
func TestRunScenarioFilesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, f := range []string{"smoke-closed.json", "smoke-open.json"} {
		sc, err := Load(filepath.Join("..", "..", "scenarios", f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		res, err := Run(sc, RunOptions{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if res.Ops < 1 || res.OpsPerSec <= 0 {
			t.Errorf("%s: degenerate result %+v", f, res)
		}
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	sc := smokeClosed()
	sc.Driver = "bogus"
	if _, err := Run(sc, RunOptions{}); err == nil || !strings.Contains(err.Error(), "unknown driver") {
		t.Fatalf("Run accepted an invalid spec: %v", err)
	}
}
