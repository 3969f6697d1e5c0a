package kwbench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kwmds"
)

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
		}, "exactly one of gen and tier"},
		{"no graph source", func(s *Scenario) {
			s.Graphs = []GraphSpec{{Name: "x"}}
		}, "exactly one of gen and tier"},
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
		{"repeated algo", func(s *Scenario) { s.Matrix.Algos = []string{"kw", "kw2", "kw"} }, `matrix algo "kw" given twice`},
		{"repeated variant", func(s *Scenario) { s.Matrix.Variants = []string{"ln", "ln"} }, `matrix variant "ln" given twice`},
		{"repeated k", func(s *Scenario) { s.Matrix.Ks = []int{2, 3, 2} }, "matrix k 2 given twice"},
		{"nan theta", func(s *Scenario) {
			s.Select = "zipfian"
			s.Theta = math.NaN()
		}, "finite theta > 1"},
		{"inf theta", func(s *Scenario) {
			s.Select = "zipfian"
			s.Theta = math.Inf(1)
		}, "finite theta > 1"},
		{"cross-check with frac", func(s *Scenario) {
			s.CrossCheck = true
			s.Matrix.Algos = []string{"frac"}
		}, `unknown algo "frac"`},
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
		{"mobility replay mode", func(s *Scenario) {
			s.Closed = nil
			s.Graphs = nil
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 2, Mode: "replay"}
		}, `unknown mobility mode "replay"`},
		{"mobility without mode", func(s *Scenario) {
			s.Closed = nil
			s.Graphs = nil
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 2}
		}, "missing mobility mode"},
		{"churn over sim driver", func(s *Scenario) {
			s.Driver = "inproc-sim"
			s.Closed = nil
			s.Graphs = nil
			s.WarmupOps = 1
			s.Mobility = &MobilitySpec{N: 10, Radius: 0.3, Epochs: 3, Mode: MobilityChurn}
		}, `unknown driver "inproc-sim"`},
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
		}, `unknown algo "kwcds"`},
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
		{"curve knobs without curve", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, PeakFactor: 3}
		}, "require a flash curve"},
		{"unknown curve", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: "sawtooth"}
		}, `unknown curve "sawtooth"`},
		{"flash window overflows", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: CurveFlash, PeakStartFrac: 0.8, PeakDurFrac: 0.3}
		}, "their sum ≤ 1"},
		{"diurnal with flash window", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: "diurnal", PeakStartFrac: 0.2}
		}, `unknown curve "diurnal"`},
		{"sub-unit peak factor", func(s *Scenario) {
			s.Closed = nil
			s.Open = &OpenLoop{Rate: 5, DurationSec: 1, Curve: CurveFlash, PeakFactor: 0.5}
		}, "peak_factor ≥ 1"},
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
		Select: "zipfian",
		Theta:  1.5,
		Mix:    &MixSpec{CachedSolve: 0.9, ColdSolve: 0.05, Mutate: 0.05},
		SLO: &SLOSpec{
			P99MS:       f64p(250),
			ErrorRate:   f64p(0.01),
			ShedRate:    f64p(0.2),
			MinShedRate: f64p(0.01),
		},
		Matrix: Matrix{
			Algos:    []string{"kw", "kw2"},
			Variants: []string{"ln", "ln-lnln"},
			Ks:       []int{2, 3},
		},
		Closed:    &ClosedLoop{Concurrency: 4, Ops: 64},
		WarmupOps: 8,
		Seeds:     4,
		HTTP:      &HTTPSpec{Workers: 2, MaxQueue: 16, QueueTimeoutSec: 0.5},
	}
}

// goldenSpecJSON and goldenSpecTOML render fullSpec in the two spellings.
const goldenSpecJSON = `{
  "name": "full",
  "description": "every knob set",
  "driver": "http-serve",
  "graphs": [
    {"tier": "udg-500"},
    {"name": "tiny", "gen": "gnp:50:0.1:3"}
  ],
  "select": "zipfian",
  "theta": 1.5,
  "mix": {"cached_solve": 0.9, "cold_solve": 0.05, "mutate": 0.05},
  "slo": {"p99_ms": 250, "error_rate": 0.01, "shed_rate": 0.2, "min_shed_rate": 0.01},
  "matrix": {"algos": ["kw", "kw2"], "variants": ["ln", "ln-lnln"], "ks": [2, 3]},
  "closed": {"concurrency": 4, "ops": 64},
  "warmup_ops": 8,
  "seeds": 4,
  "http": {"workers": 2, "max_queue": 16, "queue_timeout_sec": 0.5}
}`

const goldenSpecTOML = `
# golden TOML rendering of the full spec
name = "full"
description = "every knob set"
driver = "http-serve"
select = "zipfian"
theta = 1.5
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
error_rate = 0.01
shed_rate = 0.2
min_shed_rate = 0.01

[matrix]
algos = ["kw", "kw2"]
variants = ["ln", "ln-lnln"]
ks = [2, 3]

[closed]
concurrency = 4
ops = 64

[http]
workers = 2
max_queue = 16
queue_timeout_sec = 0.5
`

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

	fromJSON, err := Decode([]byte(goldenSpecJSON), false)
	if err != nil {
		t.Fatalf("golden JSON: %v", err)
	}
	if !reflect.DeepEqual(fromJSON, want) {
		t.Fatalf("golden JSON decoded differently:\ngot  %+v\nwant %+v", fromJSON, want)
	}

	fromTOML, err := Decode([]byte(goldenSpecTOML), true)
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
	// shards swept the removed in-process sharded engine, batch_size and
	// [mix] batch_solve drove the removed batch solve path, sched picked
	// the removed work-stealing scheduler, reorder ran the removed
	// degree-ordered relabeling, [open] cycles counted the periods of the
	// removed diurnal curve, tenants split the load into the removed
	// per-tenant client loops, [http] url aimed the http-serve driver at
	// the removed remote target, select_seed reseeded the schedule, a
	// graph's file read an edge list, [http] cache_entries and timeout_sec
	// sized the spawned server's cache and each request's deadline, and
	// [slo] p999_ms bounded the p99.9 latency; a stale spec that still
	// carries one is refused at load in either syntax, not ignored (a url
	// left in place must not quietly spawn a local server instead).
	for _, tc := range []struct {
		syntax, key, spec string
	}{
		{"toml", "shards", "name = \"x\"\ndriver = \"inproc-fast\"\nshards = [2]\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n"},
		{"json", "shards", `{"name":"x","driver":"inproc-fast","shards":[2],"graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1}}`},
		{"toml", "batch_size", "name = \"x\"\ndriver = \"inproc-fast\"\nbatch_size = 8\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n"},
		{"json", "batch_size", `{"name":"x","driver":"inproc-fast","batch_size":8,"graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1}}`},
		{"toml", "batch_solve", "name = \"x\"\ndriver = \"inproc-fast\"\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n[mix]\ncached_solve = 0.5\nbatch_solve = 0.5\n"},
		{"json", "batch_solve", `{"name":"x","driver":"inproc-fast","graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1},"mix":{"cached_solve":0.5,"batch_solve":0.5}}`},
		{"toml", "sched", "name = \"x\"\ndriver = \"inproc-fast\"\nsched = \"steal\"\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n"},
		{"toml", "reorder", "name = \"x\"\ndriver = \"inproc-fast\"\nreorder = true\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n"},
		{"json", "reorder", `{"name":"x","driver":"inproc-fast","reorder":true,"graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1}}`},
		{"toml", "cycles", "name = \"x\"\ndriver = \"inproc-fast\"\n[[graphs]]\ntier = \"udg-500\"\n[open]\nrate = 5\nduration_sec = 1\ncurve = \"flash\"\ncycles = 2\n"},
		{"json", "cycles", `{"name":"x","driver":"inproc-fast","graphs":[{"tier":"udg-500"}],"open":{"rate":5,"duration_sec":1,"curve":"flash","cycles":2}}`},
		{"toml", "tenants", "name = \"x\"\ndriver = \"http-serve\"\ntenants = 2\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n"},
		{"json", "tenants", `{"name":"x","driver":"http-serve","tenants":2,"graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1}}`},
		{"toml", "url", "name = \"x\"\ndriver = \"http-serve\"\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n[http]\nurl = \"http://127.0.0.1:8080\"\n"},
		{"json", "url", `{"name":"x","driver":"http-serve","graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1},"http":{"url":"http://127.0.0.1:8080"}}`},
		{"toml", "select_seed", "name = \"x\"\ndriver = \"inproc-fast\"\nselect_seed = 9\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n"},
		{"json", "select_seed", `{"name":"x","driver":"inproc-fast","select_seed":9,"graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1}}`},
		{"toml", "file", "name = \"x\"\ndriver = \"inproc-fast\"\n[[graphs]]\nfile = \"g.edges\"\n[closed]\nconcurrency = 1\nops = 1\n"},
		{"json", "file", `{"name":"x","driver":"inproc-fast","graphs":[{"file":"g.edges"}],"closed":{"concurrency":1,"ops":1}}`},
		{"toml", "cache_entries", "name = \"x\"\ndriver = \"http-serve\"\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n[http]\ncache_entries = 32\n"},
		{"json", "cache_entries", `{"name":"x","driver":"http-serve","graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1},"http":{"cache_entries":32}}`},
		{"toml", "timeout_sec", "name = \"x\"\ndriver = \"http-serve\"\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n[http]\ntimeout_sec = 5\n"},
		{"json", "timeout_sec", `{"name":"x","driver":"http-serve","graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1},"http":{"timeout_sec":5}}`},
		{"toml", "p999_ms", "name = \"x\"\ndriver = \"inproc-fast\"\n[[graphs]]\ntier = \"udg-500\"\n[closed]\nconcurrency = 1\nops = 1\n[slo]\np999_ms = 400\n"},
		{"json", "p999_ms", `{"name":"x","driver":"inproc-fast","graphs":[{"tier":"udg-500"}],"closed":{"concurrency":1,"ops":1},"slo":{"p999_ms":400}}`},
	} {
		_, err := Decode([]byte(tc.spec), tc.syntax == "toml")
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.key+`"`) {
			t.Errorf("%s spec with a %s key: err = %v, want an unknown-field refusal", tc.syntax, tc.key, err)
		}
	}
	// kwcds ran the connected variant and frac the LP stage alone; a
	// matrix that still names either is refused at load in either syntax.
	for _, algo := range []string{"kwcds", "frac"} {
		for _, tc := range []struct{ syntax, spec string }{
			{"toml", "name = \"x\"\ndriver = \"inproc-fast\"\n[[graphs]]\ntier = \"udg-500\"\n[matrix]\nalgos = [\"" + algo + "\"]\n[closed]\nconcurrency = 1\nops = 1\n"},
			{"json", `{"name":"x","driver":"inproc-fast","graphs":[{"tier":"udg-500"}],"matrix":{"algos":["` + algo + `"]},"closed":{"concurrency":1,"ops":1}}`},
		} {
			_, err := Decode([]byte(tc.spec), tc.syntax == "toml")
			if err == nil || !strings.Contains(err.Error(), `unknown algo "`+algo+`"`) {
				t.Errorf("%s spec with algo %s: err = %v, want an unknown-algo refusal", tc.syntax, algo, err)
			}
		}
	}
}

// TestLoadScenarioCorpus parses every checked-in scenario file: the corpus
// must never drift out of the schema. Every row of the recorded trajectory
// must name a scenario of the corpus, so deleting a spec without its row
// (or recording a row from an uncommitted spec) fails here.
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
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_kwbench.json"))
	if err != nil {
		t.Fatalf("recorded trajectory missing: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_kwbench.json: %v", err)
	}
	for _, row := range rep.Scenarios {
		if !names[row.Name] {
			t.Errorf("BENCH_kwbench.json row %q names no scenario in %s", row.Name, dir)
		}
	}
}

// FuzzScenarioSpec feeds Decode arbitrary specs in either spelling. No
// input may panic, and a spec that either spelling accepts, encoded as
// JSON, decodes again and re-encodes to the same bytes. Encodings are
// compared, not structs: `algos = []` decodes to an empty slice that JSON
// then omits.
func FuzzScenarioSpec(f *testing.F) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, strings.EqualFold(filepath.Ext(e.Name()), ".toml"))
	}
	f.Add([]byte(goldenSpecJSON), false)
	f.Add([]byte(goldenSpecTOML), true)
	f.Fuzz(func(t *testing.T, data []byte, toml bool) {
		sc, err := Decode(data, toml)
		if err != nil {
			return
		}
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		again, err := Decode(enc, false)
		if err != nil {
			t.Fatalf("the JSON encoding of an accepted spec is refused: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("encoding the decoded encoding: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", enc, enc2)
		}
	})
}

func TestEffectiveName(t *testing.T) {
	for _, tc := range []struct {
		in   GraphSpec
		want string
	}{
		{GraphSpec{Name: "x", Tier: "udg-500"}, "x"},
		{GraphSpec{Tier: "udg-500"}, "udg-500"},
		{GraphSpec{Gen: "udg:9:0.5:1"}, "udg:9:0.5:1"},
	} {
		if got := tc.in.EffectiveName(); got != tc.want {
			t.Errorf("EffectiveName(%+v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
