package kwbench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kwmds"
)

func i64p(v int64) *int64     { return &v }
func f64p(v float64) *float64 { return &v }

// minimal returns a valid baseline scenario tests mutate into invalidity.
func minimal() *Scenario {
	return &Scenario{
		Name:   "t",
		Driver: DriverInprocFast,
		Graphs: []GraphSpec{{Gen: "udg:100:0.2:1"}},
		Closed: &ClosedLoop{Concurrency: 1, Ops: 1},
	}
}

func TestValidateBadSpecs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string
	}{
		{"missing name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"missing driver", func(s *Scenario) { s.Driver = "" }, "missing driver"},
		{"unknown driver", func(s *Scenario) { s.Driver = "warp" }, `unknown driver "warp"`},
		{"conflicting loop modes", func(s *Scenario) {
			s.Open = &OpenLoop{Rate: 10, DurationSec: 1}
		}, "conflicting loop modes"},
		{"no loop mode", func(s *Scenario) { s.Closed = nil }, "missing loop mode"},
		{"zero rate", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 0, DurationSec: 1}
		}, "rate > 0"},
		{"negative rate", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: -3, DurationSec: 1}
		}, "rate > 0"},
		{"zero duration", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 10}
		}, "duration_sec > 0"},
		{"zero concurrency", func(s *Scenario) { s.Closed.Concurrency = 0 }, "concurrency ≥ 1"},
		{"zero ops", func(s *Scenario) { s.Closed.Ops = 0 }, "ops ≥ 1"},
		{"empty graph set", func(s *Scenario) { s.Graphs = nil }, "empty graph set"},
		{"bad tier", func(s *Scenario) {
			s.Graphs = []GraphSpec{{Tier: "udg-3trillion"}}
		}, `bad tier "udg-3trillion"`},
		{"two graph sources", func(s *Scenario) {
			s.Graphs = []GraphSpec{{Gen: "udg:100:0.2:1", Tier: "udg-500"}}
		}, "exactly one of gen, file and tier"},
		{"no graph source", func(s *Scenario) {
			s.Graphs = []GraphSpec{{Name: "x"}}
		}, "exactly one of gen, file and tier"},
		{"duplicate graph names", func(s *Scenario) {
			s.Graphs = []GraphSpec{{Tier: "udg-500"}, {Gen: "udg:9:0.5:1", Name: "udg-500"}}
		}, `duplicate graph name "udg-500"`},
		{"unknown select", func(s *Scenario) { s.Select = "lifo" }, `unknown select "lifo"`},
		{"zipfian theta ≤ 1", func(s *Scenario) {
			s.Select = "zipfian"
			s.Theta = 0.9
		}, "theta > 1"},
		{"negative seeds", func(s *Scenario) { s.Seeds = -1 }, "seeds must be ≥ 0"},
		{"negative warmup", func(s *Scenario) { s.WarmupOps = -2 }, "warmup_ops must be ≥ 0"},
		{"unknown algo", func(s *Scenario) { s.Matrix.Algos = []string{"dijkstra"} }, `unknown algo "dijkstra"`},
		{"unknown variant", func(s *Scenario) { s.Matrix.Variants = []string{"log-log"} }, `unknown variant "log-log"`},
		{"negative k", func(s *Scenario) { s.Matrix.Ks = []int{-1} }, "k -1 outside"},
		{"k above MaxK", func(s *Scenario) { s.Matrix.Ks = []int{kwmds.MaxK + 1} }, "outside [0"},
		{"nan theta", func(s *Scenario) {
			s.Select = "zipfian"
			s.Theta = math.NaN()
		}, "finite theta > 1"},
		{"inf theta", func(s *Scenario) {
			s.Select = "zipfian"
			s.Theta = math.Inf(1)
		}, "finite theta > 1"},
		{"bad http timeout", func(s *Scenario) {
			s.Driver = DriverHTTPServe
			s.HTTP = &HTTPSpec{TimeoutSec: -1}
		}, "timeout_sec"},
		{"cross-check with frac", func(s *Scenario) {
			s.CrossCheck = true
			s.Matrix.Algos = []string{"frac"}
		}, "algo frac has none"},
		{"cross-check over http", func(s *Scenario) {
			s.Driver = DriverHTTPServe
			s.CrossCheck = true
		}, "cross_check requires an inproc driver"},
		{"mobility over http", func(s *Scenario) {
			s.Driver = DriverHTTPServe
			s.Closed = nil
			s.Graphs = nil
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 2}
		}, "mobility replay requires an inproc driver"},
		{"mobility with loop", func(s *Scenario) {
			s.Graphs = nil
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 2}
		}, "takes no loop spec"},
		{"mobility with graphs", func(s *Scenario) {
			s.Closed = nil
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 2}
		}, "generates its own snapshots"},
		{"mobility bad params", func(s *Scenario) {
			s.Closed = nil
			s.Graphs = nil
			s.Mobility = &MobilitySpec{N: 10, Radius: 0, Epochs: 2}
		}, "bad mobility parameters"},
		{"mobility all-warmup", func(s *Scenario) {
			s.Closed = nil
			s.Graphs = nil
			s.WarmupOps = 3
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 3}
		}, "consumes every one"},
		{"mobility unknown mode", func(s *Scenario) {
			s.Closed = nil
			s.Graphs = nil
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 2, Mode: "teleport"}
		}, `unknown mobility mode "teleport"`},
		{"churn over sim driver", func(s *Scenario) {
			s.Driver = DriverInprocSim
			s.Closed = nil
			s.Graphs = nil
			s.WarmupOps = 1
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 3, Mode: MobilityChurn}
		}, "requires the inproc-fast driver"},
		{"churn multi-combo", func(s *Scenario) {
			s.Closed = nil
			s.Graphs = nil
			s.WarmupOps = 1
			s.Matrix.Ks = []int{1, 2}
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 3, Mode: MobilityChurn}
		}, "exactly one matrix combo"},
		{"churn unsupported algo", func(s *Scenario) {
			s.Closed = nil
			s.Graphs = nil
			s.WarmupOps = 1
			s.Matrix.Algos = []string{"kwcds"}
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 3, Mode: MobilityChurn}
		}, "supports algos kw|kw2"},
		{"churn without warmup", func(s *Scenario) {
			s.Closed = nil
			s.Graphs = nil
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 3, Mode: MobilityChurn}
		}, "warmup_ops ≥ 1"},
		{"http block on inproc", func(s *Scenario) { s.HTTP = &HTTPSpec{Workers: 2} }, "only valid with"},
		{"negative max_inflight", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, MaxInflight: -1}
		}, "max_inflight must be ≥ 0"},
		{"select_seed zero", func(s *Scenario) { s.SelectSeed = i64p(0) }, "select_seed 0 is not a distinct seed"},
		{"curve knobs without curve", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, PeakFactor: 3}
		}, "require a flash or diurnal curve"},
		{"unknown curve", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: "sawtooth"}
		}, `unknown curve "sawtooth"`},
		{"flash with cycles", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: CurveFlash, Cycles: 2}
		}, "cycles applies to the diurnal curve only"},
		{"flash window overflows", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: CurveFlash, PeakStartFrac: 0.8, PeakDurFrac: 0.3}
		}, "their sum ≤ 1"},
		{"diurnal with flash window", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: CurveDiurnal, PeakStartFrac: 0.2}
		}, "apply to the flash curve only"},
		{"sub-unit peak factor", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: CurveFlash, PeakFactor: 0.5}
		}, "peak_factor ≥ 1"},
		{"negative tenants", func(s *Scenario) { s.Tenants = -1 }, "tenants must be ≥ 0"},
		{"tenants with batching", func(s *Scenario) {
			s.Tenants = 2
			s.BatchSize = 4
		}, "a batch would span tenants"},
		{"negative mix weight", func(s *Scenario) {
			s.Mix = &MixSpec{CachedSolve: -0.5}
		}, "mix weight cached_solve must be a finite value ≥ 0"},
		{"all-zero mix", func(s *Scenario) {
			s.Mix = &MixSpec{}
		}, "mix needs at least one positive weight"},
		{"mix with cross-check", func(s *Scenario) {
			s.Mix = &MixSpec{CachedSolve: 1}
			s.CrossCheck = true
		}, "mix and cross_check are mutually exclusive"},
		{"mutate on inproc driver", func(s *Scenario) {
			s.Mix = &MixSpec{CachedSolve: 0.9, Mutate: 0.1}
		}, "mix weight mutate requires the http-serve driver"},
		{"mutate against remote", func(s *Scenario) {
			s.Driver = DriverHTTPServe
			s.HTTP = &HTTPSpec{URL: "http://example.test"}
			s.Mix = &MixSpec{CachedSolve: 0.9, Mutate: 0.1}
		}, "requires a spawned server"},
		{"batch_solve over http", func(s *Scenario) {
			s.Driver = DriverHTTPServe
			s.Mix = &MixSpec{BatchSolve: 1}
		}, "mix weight batch_solve requires the inproc-fast driver"},
		{"batch_solve with kwcds", func(s *Scenario) {
			s.Mix = &MixSpec{BatchSolve: 1}
			s.Matrix.Algos = []string{"kwcds"}
		}, "mix weight batch_solve supports algos kw|kw2"},
		{"empty slo block", func(s *Scenario) { s.SLO = &SLOSpec{} }, "slo block sets no bounds"},
		{"negative slo bound", func(s *Scenario) {
			s.SLO = &SLOSpec{P99MS: f64p(-1)}
		}, "slo p99_ms must be a finite value ≥ 0"},
		{"slo rate above one", func(s *Scenario) {
			s.SLO = &SLOSpec{ErrorRate: f64p(1.5)}
		}, "slo error_rate is a fraction in [0, 1]"},
		{"slo shed floor above cap", func(s *Scenario) {
			s.SLO = &SLOSpec{ShedRate: f64p(0.1), MinShedRate: f64p(0.2)}
		}, "exceeds shed_rate"},
		{"negative max_queue", func(s *Scenario) {
			s.Driver = DriverHTTPServe
			s.HTTP = &HTTPSpec{MaxQueue: -1}
		}, "max_queue must be ≥ 0"},
		{"queue knobs on remote", func(s *Scenario) {
			s.Driver = DriverHTTPServe
			s.HTTP = &HTTPSpec{URL: "http://example.test", MaxQueue: 4}
		}, "a remote target configures its own admission queue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := minimal()
			tc.mutate(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("Validate() accepted a bad spec, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}

	if err := minimal().Validate(); err != nil {
		t.Fatalf("baseline spec must be valid, got %v", err)
	}
}

// fullSpec exercises every field of the scenario schema.
func fullSpec() *Scenario {
	return &Scenario{
		Name:        "full",
		Description: "every knob set",
		Driver:      DriverHTTPServe,
		Graphs: []GraphSpec{
			{Tier: "udg-500"},
			{Name: "tiny", Gen: "gnp:50:0.1:3"},
		},
		Select:     "zipfian",
		Theta:      1.5,
		SelectSeed: i64p(9),
		Mix:        &MixSpec{CachedSolve: 0.9, ColdSolve: 0.05, Mutate: 0.05},
		Tenants:    2,
		SLO: &SLOSpec{
			P99MS:       f64p(250),
			P999MS:      f64p(400),
			ErrorRate:   f64p(0.01),
			ShedRate:    f64p(0.2),
			MinShedRate: f64p(0.01),
		},
		Matrix: Matrix{
			Algos:    []string{"kw", "kwcds"},
			Variants: []string{"ln", "ln-lnln"},
			Ks:       []int{2, 3},
		},
		Closed:    &ClosedLoop{Concurrency: 4, Ops: 64},
		WarmupOps: 8,
		Seeds:     4,
		HTTP:      &HTTPSpec{Workers: 2, CacheEntries: 32, MaxQueue: 16, QueueTimeoutSec: 0.5},
	}
}

// TestSpecGoldenRoundTrip checks that a full spec survives
// struct → JSON → Decode unchanged, and that the checked-in golden JSON
// and TOML renderings decode to that same struct — the two formats are one
// schema.
func TestSpecGoldenRoundTrip(t *testing.T) {
	want := fullSpec()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, false)
	if err != nil {
		t.Fatalf("Decode(Marshal(spec)): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the spec:\ngot  %+v\nwant %+v", got, want)
	}

	goldenJSON := `{
  "name": "full",
  "description": "every knob set",
  "driver": "http-serve",
  "graphs": [
    {"tier": "udg-500"},
    {"name": "tiny", "gen": "gnp:50:0.1:3"}
  ],
  "select": "zipfian",
  "theta": 1.5,
  "select_seed": 9,
  "mix": {"cached_solve": 0.9, "cold_solve": 0.05, "mutate": 0.05},
  "tenants": 2,
  "slo": {"p99_ms": 250, "p999_ms": 400, "error_rate": 0.01, "shed_rate": 0.2, "min_shed_rate": 0.01},
  "matrix": {"algos": ["kw", "kwcds"], "variants": ["ln", "ln-lnln"], "ks": [2, 3]},
  "closed": {"concurrency": 4, "ops": 64},
  "warmup_ops": 8,
  "seeds": 4,
  "http": {"workers": 2, "cache_entries": 32, "max_queue": 16, "queue_timeout_sec": 0.5}
}`
	fromJSON, err := Decode([]byte(goldenJSON), false)
	if err != nil {
		t.Fatalf("golden JSON: %v", err)
	}
	if !reflect.DeepEqual(fromJSON, want) {
		t.Fatalf("golden JSON decoded differently:\ngot  %+v\nwant %+v", fromJSON, want)
	}

	goldenTOML := `
# golden TOML rendering of the full spec
name = "full"
description = "every knob set"
driver = "http-serve"
select = "zipfian"
theta = 1.5
select_seed = 9
tenants = 2
warmup_ops = 8
seeds = 4

[[graphs]]
tier = "udg-500"

[[graphs]]
name = "tiny"
gen = "gnp:50:0.1:3"

[mix]
cached_solve = 0.9
cold_solve = 0.05
mutate = 0.05

[slo]
p99_ms = 250
p999_ms = 400
error_rate = 0.01
shed_rate = 0.2
min_shed_rate = 0.01

[matrix]
algos = ["kw", "kwcds"]
variants = ["ln", "ln-lnln"]
ks = [2, 3]

[closed]
concurrency = 4
ops = 64

[http]
workers = 2
cache_entries = 32
max_queue = 16
queue_timeout_sec = 0.5
`
	fromTOML, err := Decode([]byte(goldenTOML), true)
	if err != nil {
		t.Fatalf("golden TOML: %v", err)
	}
	if !reflect.DeepEqual(fromTOML, want) {
		t.Fatalf("golden TOML decoded differently:\ngot  %+v\nwant %+v", fromTOML, want)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode([]byte(`{"name":"x","driver":"inproc-fast","graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1},"turbo":true}`), false)
	if err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Fatalf("unknown field accepted, err = %v", err)
	}
	// no_batch switched off the server's removed cold-solve batcher; a
	// stale spec that still sets it is refused at load, not ignored.
	spec := "name = \"x\"\ndriver = \"http-serve\"\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n[http]\nno_batch = true\n"
	if _, err := Decode([]byte(spec), true); err == nil || !strings.Contains(err.Error(), "no_batch") {
		t.Fatalf("spec with an [http] no_batch key: err = %v, want an unknown-field refusal", err)
	}
}

// TestLoadScenarioCorpus parses every checked-in scenario file: the corpus
// must never drift out of the schema.
func TestLoadScenarioCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("scenario corpus missing: %v", err)
	}
	if len(entries) < 4 {
		t.Fatalf("scenario corpus has %d files, want ≥ 4", len(entries))
	}
	names := map[string]bool{}
	for _, e := range entries {
		sc, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if names[sc.Name] {
			t.Errorf("%s: duplicate scenario name %q in the corpus", e.Name(), sc.Name)
		}
		names[sc.Name] = true
	}
}

func TestEffectiveName(t *testing.T) {
	for _, tc := range []struct {
		in   GraphSpec
		want string
	}{
		{GraphSpec{Name: "x", Tier: "udg-500"}, "x"},
		{GraphSpec{Tier: "udg-500"}, "udg-500"},
		{GraphSpec{Gen: "udg:9:0.5:1"}, "udg:9:0.5:1"},
		{GraphSpec{File: "/tmp/foo.edges"}, "foo.edges"},
	} {
		if got := tc.in.EffectiveName(); got != tc.want {
			t.Errorf("EffectiveName(%+v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
