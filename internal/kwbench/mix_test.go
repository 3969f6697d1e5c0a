package kwbench

import (
	"testing"
)

// TestMixScheduleDeterministic pins the mixed-workload extension of the
// request-schedule contract: kind draws come from the same seeded stream as
// graph selection, cold solves get guaranteed-miss seeds, and mutate ops
// carry the op index as their edge-selection seed.
func TestMixScheduleDeterministic(t *testing.T) {
	sc := smokeClosed()
	sc.Driver = DriverHTTPServe
	sc.HTTP = &HTTPSpec{Workers: 2}
	sc.Mix = &MixSpec{CachedSolve: 0.6, ColdSolve: 0.2, Mutate: 0.2}
	a := buildRequests(sc, 2, 200)
	b := buildRequests(sc, 2, 200)
	kinds := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
		kinds[a[i].Kind]++
		switch a[i].Kind {
		case KindColdSolve:
			if a[i].Seed < coldSeedBase {
				t.Fatalf("cold solve %d reuses a warmable seed %d", i, a[i].Seed)
			}
		case KindMutate:
			if a[i].Seed != int64(i) {
				t.Fatalf("mutate %d carries seed %d, want the op index", i, a[i].Seed)
			}
		case KindCachedSolve:
			if a[i].Seed >= coldSeedBase {
				t.Fatalf("cached solve %d drew a cold seed %d", i, a[i].Seed)
			}
		default:
			t.Fatalf("request %d has kind %q", i, a[i].Kind)
		}
	}
	// With 200 draws at weights 0.6/0.2/0.2 every kind must appear.
	for _, k := range []string{KindCachedSolve, KindColdSolve, KindMutate} {
		if kinds[k] == 0 {
			t.Errorf("kind %s never drawn in 200 ops: %v", k, kinds)
		}
	}
}

// TestLegacyScheduleUnchangedByMixSupport guards back-compat: a spec with no
// mix must produce the exact schedule it did before the mix model existed —
// no kind field, no rng draws consumed, historical seeds.
func TestLegacyScheduleUnchangedByMixSupport(t *testing.T) {
	sc := smokeClosed()
	for i, r := range buildRequests(sc, 2, 50) {
		if r.Kind != "" {
			t.Fatalf("legacy request %d grew mix fields: %+v", i, r)
		}
		if want := 1 + int64(i%sc.Seeds); r.Seed != want {
			t.Fatalf("legacy request %d seed %d, want %d", i, r.Seed, want)
		}
	}
}

// TestRunMixedHTTPServe runs a cached/cold/mutate mix against a spawned
// serve instance end to end and checks the per-kind accounting.
func TestRunMixedHTTPServe(t *testing.T) {
	sc := &Scenario{
		Name:      "test-mixed",
		Driver:    DriverHTTPServe,
		Graphs:    []GraphSpec{{Gen: "udg:150:0.15:1", Name: "a"}, {Gen: "gnp:100:0.05:2", Name: "b"}},
		Select:    "zipfian",
		Theta:     1.3,
		Mix:       &MixSpec{CachedSolve: 0.8, ColdSolve: 0.1, Mutate: 0.1},
		Closed:    &ClosedLoop{Concurrency: 3, Ops: 40},
		WarmupOps: 4,
		Seeds:     2,
		HTTP:      &HTTPSpec{Workers: 2},
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCommon(t, res, 40)
	if res.Errors != 0 || res.Sheds != 0 {
		t.Fatalf("healthy mixed run reported errors=%d sheds=%d", res.Errors, res.Sheds)
	}
	if len(res.MixRows) == 0 {
		t.Fatal("mixed run reported no mix rows")
	}
	sum := 0
	for _, row := range res.MixRows {
		if row.Ops > 0 && !(row.Latency.Max > 0) {
			t.Errorf("kind %s: %d ops but zero max latency", row.Kind, row.Ops)
		}
		sum += row.Ops
	}
	if sum != res.Ops {
		t.Errorf("mix rows sum to %d ops, scenario has %d", sum, res.Ops)
	}
	if res.HitRate == nil {
		t.Error("spawned http driver must report a hit rate")
	}
}

// TestRunShedsAreNotErrors drives an overloaded spawned server (one worker,
// one queue slot) with all-cold traffic: admission control must shed, and
// the harness must count the 429s as sheds — zero errors, and only
// admitted ops in the latency population. The graph is sized so a
// steady-state cold solve (~15ms) outlives the Go async-preemption quantum
// (~10ms): on a single-CPU host shorter solves run to completion
// unpreempted and waiters never overlap inside the admission window.
func TestRunShedsAreNotErrors(t *testing.T) {
	sc := &Scenario{
		Name:   "test-sheds",
		Driver: DriverHTTPServe,
		Graphs: []GraphSpec{{Gen: "udg:50000:0.01:1", Name: "u"}},
		Mix:    &MixSpec{ColdSolve: 1},
		Closed: &ClosedLoop{Concurrency: 8, Ops: 64},
		HTTP:   &HTTPSpec{Workers: 1, MaxQueue: 1},
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("sheds were counted as errors: %d errors", res.Errors)
	}
	if res.Sheds == 0 {
		t.Fatal("8-deep closed loop against 1 worker + 1 queue slot shed nothing")
	}
	if res.Ops+res.Sheds != 64 {
		t.Errorf("ops %d + sheds %d != 64 attempted", res.Ops, res.Sheds)
	}
	if res.ShedRate <= 0 || res.ShedRate >= 1 {
		t.Errorf("shed rate = %v, want (0, 1)", res.ShedRate)
	}
	// Ops is successes only; the latency histogram covers exactly those.
	checkCommon(t, res, res.Ops)
}

// TestRunOpenLoopExcludesErrors is the regression test for the open-loop
// stats bug: errored ops used to be recorded into the latency histogram and
// size population before the error was checked. With every op failing
// (failingDriver) under an error-tolerant SLO, the run must report zero
// successes and an untouched histogram — not a latency distribution of
// failures.
func TestRunOpenLoopExcludesErrors(t *testing.T) {
	one := 1.0
	sc := &Scenario{
		Name: "test-open-errors",
		Open: &OpenLoop{Rate: 100, DurationSec: 0.3, MaxInflight: 8},
		SLO:  &SLOSpec{ErrorRate: &one},
	}
	res := &ScenarioResult{}
	if err := runLoop(sc, RunOptions{}, &failingDriver{}, make([]LoadedGraph, 1), res); err != nil {
		t.Fatal(err)
	}
	evaluateSLO(sc, res)
	if res.Ops != 0 {
		t.Fatalf("every op failed but ops = %d", res.Ops)
	}
	if res.Errors == 0 || res.ErrorRate != 1 {
		t.Fatalf("error accounting: errors=%d rate=%v", res.Errors, res.ErrorRate)
	}
	if res.Latency.Max != 0 {
		t.Fatalf("failed ops leaked into the latency histogram: %+v", res.Latency)
	}
	if res.SLO == nil || len(res.SLO.Violations) != 0 {
		t.Fatalf("error_rate 1.0 bound must pass with rate 1: %+v", res.SLO)
	}
}

// TestRunSLOViolationRecorded checks that an impossible latency bound lands
// in the result's SLO outcome — Run itself stays error-free (the non-zero
// exit lives in the CLI, after the report is written).
func TestRunSLOViolationRecorded(t *testing.T) {
	tiny := 1e-9
	sc := smokeClosed()
	sc.SLO = &SLOSpec{P99MS: &tiny}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SLO == nil || len(res.SLO.Violations) == 0 {
		t.Fatalf("a %v ms p99 bound cannot hold, yet no violation recorded: %+v", tiny, res.SLO)
	}
}
