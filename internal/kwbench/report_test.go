package kwbench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleResult(name string) ScenarioResult {
	return ScenarioResult{
		Name:   name,
		Driver: DriverInprocFast,
		Loop:   "closed",
		Graphs: []GraphInfo{{Name: "g", N: 10, M: 9}},
		Combos: 1, Seeds: 1, Concurrency: 2,
		Ops: 10, ElapsedSec: 0.5, OpsPerSec: 20,
		Latency:     LatencySummary{P50: 1, P90: 2, P99: 3, P999: 4, Min: 0.5, Max: 5, Mean: 1.5},
		Environment: CurrentEnvironment(),
	}
}

func TestMergeIntoReplacesByName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kwbench.json")
	if _, err := MergeInto(path, []ScenarioResult{sampleResult("a"), sampleResult("b")}); err != nil {
		t.Fatal(err)
	}
	updated := sampleResult("a")
	updated.OpsPerSec = 99
	rep, err := MergeInto(path, []ScenarioResult{updated})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("scenarios = %d, want 2 (replace, not append)", len(rep.Scenarios))
	}
	for _, s := range rep.Scenarios {
		if s.Name == "a" && s.OpsPerSec != 99 {
			t.Errorf("scenario a not replaced: %+v", s)
		}
		if s.Name == "b" && s.OpsPerSec != 20 {
			t.Errorf("scenario b clobbered: %+v", s)
		}
	}
	if err := ValidateReportFile(path); err != nil {
		t.Fatalf("written report fails validation: %v", err)
	}
}

// TestMergeIntoKeepsEachRowsEnvironment: merging a row recorded on another
// host must not relabel the rows already in the file.
func TestMergeIntoKeepsEachRowsEnvironment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kwbench.json")
	older := sampleResult("older")
	older.Environment = Environment{GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.0", GOMAXPROCS: 1, NumCPU: 1}
	if _, err := MergeInto(path, []ScenarioResult{older}); err != nil {
		t.Fatal(err)
	}
	newer := sampleResult("newer")
	newer.Environment.GOMAXPROCS, newer.Environment.NumCPU = 64, 64
	rep, err := MergeInto(path, []ScenarioResult{newer})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Environment{}
	for _, s := range rep.Scenarios {
		got[s.Name] = s.Environment
	}
	if got["older"] != older.Environment {
		t.Errorf("older row's environment = %+v, want %+v", got["older"], older.Environment)
	}
	if got["newer"] != newer.Environment {
		t.Errorf("newer row's environment = %+v, want %+v", got["newer"], newer.Environment)
	}
	if err := ValidateReportFile(path); err != nil {
		t.Fatalf("written report fails validation: %v", err)
	}
}

// TestMergeIntoRefusesOtherSchema: a report of another schema version is
// neither overwritten nor silently emptied.
func TestMergeIntoRefusesOtherSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kwbench.json")
	old := []byte(`{"kwbench_schema": 1, "description": "d", "environment": {"goos": "linux"}, "scenarios": []}`)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeInto(path, []ScenarioResult{sampleResult("a")}); err == nil || !strings.Contains(err.Error(), "schema 1") {
		t.Fatalf("merge into a schema-1 report: err = %v, want a schema refusal", err)
	}
	if data, _ := os.ReadFile(path); string(data) != string(old) {
		t.Error("the schema-1 report was rewritten")
	}
}

// TestMergeIntoRefusesUnreadableOrUnwritable: only a missing file starts a
// fresh report. A truncated or empty file is refused, not replaced by a
// report of the new rows alone, and a row that cannot be encoded (NaN) is
// refused before the file is touched. Each case leaves the bytes as they
// were.
func TestMergeIntoRefusesUnreadableOrUnwritable(t *testing.T) {
	full := filepath.Join(t.TempDir(), "full.json")
	if _, err := MergeInto(full, []ScenarioResult{sampleResult("a"), sampleResult("b")}); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	nan := sampleResult("c")
	nan.Loop, nan.Concurrency = "open", 0
	nan.TargetRate, nan.AchievedRate = 5, math.NaN()
	for _, tc := range []struct {
		name      string
		content   []byte
		row       ScenarioResult
		wantErr   string
		namesFile bool
	}{
		{"truncated", whole[:len(whole)/2], sampleResult("c"), "does not parse as a kwbench report", true},
		{"empty", []byte{}, sampleResult("c"), "does not parse as a kwbench report", true},
		{"NaN row", whole, nan, "unsupported value: NaN", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_kwbench.json")
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := MergeInto(path, []ScenarioResult{tc.row})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("MergeInto: err = %v, want it to contain %q", err, tc.wantErr)
			}
			if tc.namesFile && !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the file", err)
			}
			if data, _ := os.ReadFile(path); !bytes.Equal(data, tc.content) {
				t.Errorf("file changed: %d bytes, want %d", len(data), len(tc.content))
			}
			entries, _ := os.ReadDir(filepath.Dir(path))
			if len(entries) != 1 {
				t.Errorf("directory holds %d entries after a refused merge, want 1", len(entries))
			}
		})
	}
}

func TestValidateReportCatchesCorruption(t *testing.T) {
	base := func() *Report {
		return &Report{
			Schema:      SchemaVersion,
			Description: "d",
			Scenarios:   []ScenarioResult{sampleResult("a")},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Report)
		wantErr string
	}{
		{"wrong schema", func(r *Report) { r.Schema = 99 }, "schema"},
		{"no scenarios", func(r *Report) { r.Scenarios = nil }, "no scenarios"},
		{"missing env", func(r *Report) { r.Scenarios[0].Environment = Environment{} }, "environment"},
		{"unnamed scenario", func(r *Report) { r.Scenarios[0].Name = "" }, "missing name"},
		{"duplicate names", func(r *Report) {
			r.Scenarios = append(r.Scenarios, sampleResult("a"))
		}, "duplicate"},
		{"bad driver", func(r *Report) { r.Scenarios[0].Driver = "x" }, "unknown driver"},
		{"bad loop", func(r *Report) { r.Scenarios[0].Loop = "spiral" }, "unknown loop"},
		{"zero ops", func(r *Report) { r.Scenarios[0].Ops = 0 }, "ops"},
		{"zero elapsed", func(r *Report) { r.Scenarios[0].ElapsedSec = 0 }, "degenerate timing"},
		{"inverted percentiles", func(r *Report) { r.Scenarios[0].Latency.P99 = 0.1 }, "non-monotonic"},
		{"open without rate", func(r *Report) { r.Scenarios[0].Loop = "open" }, "target_rate"},
		{"replay without mobility", func(r *Report) { r.Scenarios[0].Loop = "replay" }, "mobility"},
		{"mobility without mode", func(r *Report) {
			r.Scenarios[0].Loop = "replay"
			r.Scenarios[0].Mobility = &MobilityResult{Epochs: 2}
		}, `mobility mode ""`},
		{"churn without stage split", func(r *Report) {
			r.Scenarios[0].Loop = "replay"
			r.Scenarios[0].Mobility = &MobilityResult{Epochs: 2, Mode: MobilityChurn, MeanCommitMS: 0.5}
		}, "without mean_lp_ms and mean_round_ms"},
		{"churn stages off the mean", func(r *Report) {
			r.Scenarios[0].Loop = "replay"
			lp, round := 0.5, 0.6 // 0.5 + 0.5 + 0.6 = 1.6 vs a 1.5 ms mean
			r.Scenarios[0].Mobility = &MobilityResult{Epochs: 2, Mode: MobilityChurn, MeanCommitMS: 0.5, MeanLPMS: &lp, MeanRoundMS: &round}
		}, "churn stages sum to 1.6 ms"},
		{"negative churn stage", func(r *Report) {
			r.Scenarios[0].Loop = "replay"
			lp, round := -0.1, 1.1
			r.Scenarios[0].Mobility = &MobilityResult{Epochs: 2, Mode: MobilityChurn, MeanCommitMS: 0.5, MeanLPMS: &lp, MeanRoundMS: &round}
		}, "churn stage means"},
		{"infinite latency", func(r *Report) { r.Scenarios[0].Latency.Max = math.Inf(1) }, "unsupported value: +Inf"},
		{"no graphs", func(r *Report) { r.Scenarios[0].Graphs = nil }, "empty graph list"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := base()
			tc.mutate(rep)
			err := ValidateReport(rep)
			if err == nil {
				t.Fatal("corrupt report validated")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
	if err := ValidateReport(base()); err != nil {
		t.Fatalf("baseline report must validate: %v", err)
	}
	churn := base()
	churn.Scenarios[0].Loop = "replay"
	lp, round := 0.5, 0.5049 // within 1 % of the 1.5 ms mean
	churn.Scenarios[0].Mobility = &MobilityResult{Epochs: 2, Mode: MobilityChurn, MeanCommitMS: 0.5, MeanLPMS: &lp, MeanRoundMS: &round}
	if err := ValidateReport(churn); err != nil {
		t.Fatalf("a churn row whose stages sum to its mean must validate: %v", err)
	}
}

func TestValidateReportFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"kwbench_schema": 1, "bogus": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReportFile(path); err == nil {
		t.Fatal("unknown-field document validated")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReportFile(path); err == nil {
		t.Fatal("non-JSON document validated")
	}
}
