package kwbench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"kwmds/internal/hdr"
)

// SchemaVersion identifies the BENCH_kwbench.json layout. Bump only with a
// migration note in docs/BENCHMARKS.md.
const SchemaVersion = 2

// Report is the unified BENCH_kwbench.json document. Scenario results are
// keyed by name: re-running a scenario replaces its earlier entry and
// leaves the rest untouched, so one file accumulates the whole trajectory.
// Each entry carries the environment it was recorded in, so rows from
// different hosts can share one file without being relabeled.
type Report struct {
	Schema      int              `json:"kwbench_schema"`
	Description string           `json:"description"`
	Scenarios   []ScenarioResult `json:"scenarios"`
}

// Environment records where a scenario's numbers were produced.
type Environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is the hardware parallelism of the recording host. Read it
	// before interpreting any parallel comparison: when GOMAXPROCS exceeds
	// it the parallel arms timeshare the same cores.
	NumCPU int `json:"num_cpu"`
}

// LatencySummary is the histogram extract every scenario reports, in ms.
type LatencySummary struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Min  float64 `json:"min_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

// latencySummary converts the histogram's percentile block into the
// report-schema shape.
func latencySummary(h *hdr.Histogram) LatencySummary {
	s := h.Summary()
	return LatencySummary{
		P50: s.P50, P90: s.P90, P99: s.P99, P999: s.P999,
		Min: s.Min, Max: s.Max, Mean: s.Mean,
	}
}

// GraphInfo identifies one member of a scenario's graph set.
type GraphInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// LoadMS is how long materializing this graph took (generation, text
	// parse, or binary container load), measured outside the op windows.
	LoadMS float64 `json:"load_ms,omitempty"`
}

// LoadCompare is the extra block of a load-loop scenario: the same graph
// loaded as edge-list text versus the kwcsr binary container. Both means
// are wall-clock per full load, digest-verified against the generated
// original.
type LoadCompare struct {
	// TextOps is how many loads the text and verified-binary arms each
	// average over (the trusted-binary side's op count is the scenario's
	// Ops field).
	TextOps int `json:"text_ops"`
	// All three timings are medians: the arms run few ops and a single GC
	// pause or writeback stall would poison a mean.
	TextParseMS float64 `json:"text_parse_ms"`
	// BinaryLoadMS is the trusted-reader median: structural validation but
	// no SHA-256 recompute inside the stopwatch — symmetric with the text
	// parser, which verifies nothing. The harness digest-checks every load
	// of both arms outside the timing.
	BinaryLoadMS float64 `json:"binary_load_ms"`
	// BinaryVerifyMS is the verifying-reader median (embedded digest
	// recomputed in the stopwatch) — the cost a cold serve preload pays.
	BinaryVerifyMS float64 `json:"binary_verify_ms"`
	// MappedLoadMS is the zero-copy mmap-open median (graphio.OpenMapped:
	// structural validation over the mapping, no byte copies, no digest
	// recompute) — the startup cost of `kwmds serve -preload x=file.kwcsr`.
	// Absent in reports predating the mapped store.
	MappedLoadMS float64 `json:"mapped_load_ms,omitempty"`
	// Speedup is TextParseMS / BinaryLoadMS.
	Speedup     float64 `json:"speedup"`
	TextBytes   int64   `json:"text_bytes"`
	BinaryBytes int64   `json:"binary_bytes"`
}

// MobilityResult is the dynamic-graph extras of a mobility replay.
type MobilityResult struct {
	Epochs int `json:"epochs"`
	// Mode is the epoch-op mode (rebuild | churn).
	Mode string `json:"mode"`
	// MeanKept/Added/Removed are per-epoch-transition dominating-set
	// churn averages (mobility.Churn over consecutive epochs).
	MeanKept    float64 `json:"mean_kept"`
	MeanAdded   float64 `json:"mean_added"`
	MeanRemoved float64 `json:"mean_removed"`
	// MeanEdgeChurn is the mean fraction of edges NOT shared between
	// consecutive snapshots — how fast the topology itself moves.
	MeanEdgeChurn float64 `json:"mean_edge_churn"`
	// MeanEdgeDeltas is the mean number of link events (insertions plus
	// removals) per measured epoch (churn mode only).
	MeanEdgeDeltas float64 `json:"mean_edge_deltas,omitempty"`
	// MeanCommitMS is the mean time of the dyngraph apply+commit inside
	// the epoch op (churn mode only); the rest of the op is the re-solve.
	MeanCommitMS float64 `json:"mean_commit_ms,omitempty"`
	// MeanLPMS and MeanRoundMS split the re-solve (churn mode only): the
	// LP stage of the committed graph (a replay of the previous epoch's
	// trajectory when it repaired) and the rounding of its x. With
	// MeanCommitMS they sum to the op's mean latency.
	MeanLPMS    *float64 `json:"mean_lp_ms,omitempty"`
	MeanRoundMS *float64 `json:"mean_round_ms,omitempty"`
	// RepairedEpochs counts measured epochs that took the incremental
	// path — the δ⁽¹⁾/δ⁽²⁾ repair and the replay of the previous epoch's
	// LP trajectory — rather than the full LP (churn mode only).
	RepairedEpochs int `json:"repaired_epochs,omitempty"`
}

// OpKindRow is one operation kind's split of a mixed-workload scenario:
// its outcome counts and the latency distribution of its successful ops.
type OpKindRow struct {
	Kind    string         `json:"kind"`
	Ops     int            `json:"ops"`
	Errors  int            `json:"errors,omitempty"`
	Sheds   int            `json:"sheds,omitempty"`
	Latency LatencySummary `json:"latency_ms"`
}

// SLOOutcome echoes a gated scenario's bounds and records any violations.
// A non-empty Violations list makes `kwmds bench` exit non-zero — after
// the report is written, so a failing row is still inspectable here.
type SLOOutcome struct {
	Bounds     SLOSpec  `json:"bounds"`
	Violations []string `json:"violations,omitempty"`
}

// ScenarioResult is one scenario's measured outcome.
type ScenarioResult struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Environment is the host the row was recorded on, stamped by Run.
	Environment Environment `json:"environment"`
	Driver      string      `json:"driver"`
	Loop        string      `json:"loop"` // closed | open | replay | load
	Graphs      []GraphInfo `json:"graphs"`
	Combos      int         `json:"combos"`
	Seeds       int         `json:"seeds"`

	// Concurrency is the closed-loop worker count (0 for open loop and
	// replay).
	Concurrency int `json:"concurrency,omitempty"`

	WarmupOps int `json:"warmup_ops"`
	// Ops counts successful measured operations only: errored and shed
	// operations are excluded from the latency, size and throughput stats
	// and reported in Errors/Sheds instead.
	Ops        int     `json:"ops"`
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`

	// Errors counts measured operations that failed. Without an slo
	// error_rate bound the first error aborts the run (nothing is written);
	// with one, errors are counted here and gated against the bound.
	Errors int `json:"errors,omitempty"`
	// Sheds counts operations the server refused with 429 (admission
	// control). Sheds never abort a run and are never errors.
	Sheds int `json:"sheds,omitempty"`
	// ErrorRate/ShedRate are Errors and Sheds over attempted operations
	// (successes + errors + sheds).
	ErrorRate float64 `json:"error_rate,omitempty"`
	ShedRate  float64 `json:"shed_rate,omitempty"`

	// ColdMS is the latency of the first warmup operation (for mobility
	// replays, the first epoch's first solve): against a serve driver it
	// is the cache-populating cold request. 0 when the scenario has no
	// warmup phase. Warmup errors always abort the run — only measured-
	// phase errors can be tolerated (see Errors).
	ColdMS float64 `json:"cold_ms,omitempty"`

	// TargetRate/AchievedRate are set for open-loop scenarios. For a flash
	// curve TargetRate is the baseline rate and Curve names the shape
	// (flash; absent means constant).
	TargetRate   float64 `json:"target_rate,omitempty"`
	AchievedRate float64 `json:"achieved_rate,omitempty"`
	Curve        string  `json:"curve,omitempty"`

	Latency LatencySummary `json:"latency_ms"`

	// MixRows carries the per-operation-kind splits of a mixed workload.
	MixRows []OpKindRow `json:"mix_rows,omitempty"`
	// SLO echoes a gated scenario's bounds and any violations.
	SLO *SLOOutcome `json:"slo,omitempty"`

	// AllocsPerOp/BytesPerOp cover the measured phase across the whole
	// in-process stack (driver, codec, solver; for http-serve also the
	// client and handlers).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// HitRate is the fraction of measured operations answered from the
	// serve cache (http-serve driver with a spawned server only).
	HitRate *float64 `json:"hit_rate,omitempty"`

	// CrossChecked/Mismatches report the sim-vs-fast verification pass.
	CrossChecked int `json:"cross_checked,omitempty"`
	Mismatches   int `json:"mismatches,omitempty"`

	Mobility *MobilityResult `json:"mobility,omitempty"`

	// Load is the text-vs-binary comparison block of a load-loop scenario.
	Load *LoadCompare `json:"load,omitempty"`

	// Recovery is the durability block of a recovery-loop scenario.
	Recovery *RecoveryResult `json:"recovery,omitempty"`
}

// RecoveryResult is the extra block of a recovery scenario: what the WAL
// chain looked like and what reopening it cost. Every restart recovers the
// identical chain, so the snapshot/replay accounting is a single set of
// values, not a distribution; the timing spread across restarts is the
// scenario's main latency block.
type RecoveryResult struct {
	// Epochs is the committed churn history length; Restarts the number of
	// recovery cycles executed (the measured ops plus warmup).
	Epochs   int `json:"epochs"`
	Restarts int `json:"restarts"`
	// SnapshotEpoch is the epoch of the snapshot recovery starts from;
	// ReplayedEpochs how many log records it replays on top.
	SnapshotEpoch  int64 `json:"snapshot_epoch"`
	ReplayedEpochs int64 `json:"replayed_epochs"`
	// WALBytes/SnapshotBytes are the on-disk chain sizes recovered from.
	WALBytes      int64 `json:"wal_bytes"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// RecoveryMS is the median timed reopen: snapshot mmap + structural
	// and digest verification + log replay.
	RecoveryMS float64 `json:"recovery_ms"`
	// ReplayMSPerEpoch is RecoveryMS over ReplayedEpochs (absent when the
	// snapshot held the whole state).
	ReplayMSPerEpoch float64 `json:"replay_ms_per_epoch,omitempty"`
	// MeanEdgeDeltas is the mean number of link events per committed epoch.
	MeanEdgeDeltas float64 `json:"mean_edge_deltas"`
	// AppendMS is the mean synced append (write + fsync) during the drive
	// phase — the per-mutate durability tax the log charges.
	AppendMS float64 `json:"append_ms,omitempty"`
}

// CurrentEnvironment captures the running process's environment block.
func CurrentEnvironment() Environment {
	return Environment{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// reportDescription is the fixed preamble of BENCH_kwbench.json.
const reportDescription = "Unified kwbench scenario results (kwmds bench). Each entry is one scenario run: a declarative spec (scenarios/*.json|*.toml) selecting graphs, a pipeline matrix, a driver (inproc-fast | http-serve) and a load shape (closed concurrency, open target-rate, mobility epochs, format load or crash recovery). Latencies are HDR-histogram percentiles over the measured phase; open-loop latency is measured from the scheduled dispatch time, so queueing delay is included. See docs/BENCHMARKS.md for the methodology and field-by-field schema."

// MergeInto folds results into the report at path: existing scenario
// entries with matching names are replaced and the others preserved, each
// keeping the environment it was recorded in. Only a missing file is
// started fresh: an existing file that does not parse as a report, or holds
// another schema version, is refused rather than overwritten. The merged
// report is encoded to a temporary file beside path and renamed over it,
// so a failed write leaves the old file intact.
func MergeInto(path string, results []ScenarioResult) (*Report, error) {
	rep := &Report{Schema: SchemaVersion, Description: reportDescription}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, fmt.Errorf("kwbench: %w", err)
	default:
		var old Report
		err := json.Unmarshal(data, &old)
		if err == nil && old.Schema == 0 {
			err = errors.New("no kwbench_schema field")
		}
		if err != nil {
			return nil, fmt.Errorf("kwbench: %s does not parse as a kwbench report, refusing to overwrite it: %w", path, err)
		}
		if old.Schema != SchemaVersion {
			return nil, fmt.Errorf("kwbench: %s holds a schema %d report, want %d (see the migration notes in docs/BENCHMARKS.md)",
				path, old.Schema, SchemaVersion)
		}
		rep.Scenarios = old.Scenarios
	}
	for _, res := range results {
		replaced := false
		for i := range rep.Scenarios {
			if rep.Scenarios[i].Name == res.Name {
				rep.Scenarios[i] = res
				replaced = true
				break
			}
		}
		if !replaced {
			rep.Scenarios = append(rep.Scenarios, res)
		}
	}
	sort.SliceStable(rep.Scenarios, func(i, j int) bool {
		return rep.Scenarios[i].Name < rep.Scenarios[j].Name
	})
	if err := ValidateReport(rep); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("kwbench: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 would hide the report from other readers
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, fmt.Errorf("kwbench: writing %s: %w", path, err)
	}
	return rep, nil
}

// ValidateReport checks a report document against the schema: version,
// required fields, non-degenerate counters and monotonic percentiles. CI
// runs it (via `kwmds bench -validate`) over freshly produced output so a
// schema regression fails the build rather than silently shipping an
// unreadable trajectory file.
func ValidateReport(rep *Report) error {
	if rep.Schema != SchemaVersion {
		return fmt.Errorf("kwbench: report schema %d, want %d", rep.Schema, SchemaVersion)
	}
	if rep.Description == "" {
		return fmt.Errorf("kwbench: report missing description")
	}
	if len(rep.Scenarios) == 0 {
		return fmt.Errorf("kwbench: report has no scenarios")
	}
	seen := map[string]bool{}
	for i, s := range rep.Scenarios {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("kwbench: scenario %d (%q): %s", i, s.Name, fmt.Sprintf(format, args...))
		}
		if s.Name == "" {
			return fail("missing name")
		}
		if seen[s.Name] {
			return fail("duplicate scenario name")
		}
		seen[s.Name] = true
		// encoding/json refuses NaN and ±Inf, so a row holding one could
		// never be written.
		if _, err := json.Marshal(s); err != nil {
			return fail("%v", err)
		}
		if s.Environment.GoVersion == "" || s.Environment.GOOS == "" || s.Environment.NumCPU < 1 {
			return fail("missing environment block")
		}
		switch s.Driver {
		case DriverInprocFast, DriverHTTPServe:
		default:
			return fail("unknown driver %q", s.Driver)
		}
		switch s.Loop {
		case "closed", "open", "replay", "load", "recovery":
		default:
			return fail("unknown loop %q", s.Loop)
		}
		if s.Ops < 1 {
			return fail("ops = %d, want ≥ 1", s.Ops)
		}
		if s.ElapsedSec <= 0 || s.OpsPerSec <= 0 {
			return fail("degenerate timing elapsed=%v ops/s=%v", s.ElapsedSec, s.OpsPerSec)
		}
		if s.Mismatches < 0 || s.ColdMS < 0 {
			return fail("negative counters")
		}
		if s.Errors < 0 || s.Sheds < 0 {
			return fail("negative error/shed counters")
		}
		if s.ErrorRate < 0 || s.ErrorRate > 1 || s.ShedRate < 0 || s.ShedRate > 1 {
			return fail("error_rate/shed_rate outside [0, 1]: %v / %v", s.ErrorRate, s.ShedRate)
		}
		if (s.Errors > 0) != (s.ErrorRate > 0) || (s.Sheds > 0) != (s.ShedRate > 0) {
			return fail("error/shed counts and rates disagree: errors=%d rate=%v sheds=%d rate=%v",
				s.Errors, s.ErrorRate, s.Sheds, s.ShedRate)
		}
		if len(s.MixRows) > 0 {
			sumOps := 0
			for _, r := range s.MixRows {
				switch r.Kind {
				case KindCachedSolve, KindColdSolve, KindMutate:
				default:
					return fail("unknown mix row kind %q", r.Kind)
				}
				if r.Ops < 0 || r.Errors < 0 || r.Sheds < 0 {
					return fail("negative mix row counters for kind %q", r.Kind)
				}
				sumOps += r.Ops
			}
			if sumOps != s.Ops {
				return fail("mix rows account for %d ops, scenario has %d", sumOps, s.Ops)
			}
		}
		switch s.Curve {
		case "", CurveConstant, CurveFlash:
		default:
			return fail("unknown curve %q", s.Curve)
		}
		if s.Curve != "" && s.Loop != "open" {
			return fail("curve %q on a %s loop", s.Curve, s.Loop)
		}
		if s.AllocsPerOp < 0 || s.BytesPerOp < 0 {
			return fail("negative allocation counters")
		}
		l := s.Latency
		if !(l.Min <= l.P50 && l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
			return fail("non-monotonic percentiles: %+v", l)
		}
		if l.Min < 0 {
			return fail("negative latency: %+v", l)
		}
		if s.Loop == "open" && s.TargetRate <= 0 {
			return fail("open loop without target_rate")
		}
		if s.Loop == "replay" && s.Mobility == nil {
			return fail("replay without a mobility block")
		}
		if m := s.Mobility; m != nil && m.Mode != MobilityRebuild && m.Mode != MobilityChurn {
			return fail("mobility mode %q, want %s|%s", m.Mode, MobilityRebuild, MobilityChurn)
		}
		if m := s.Mobility; m != nil && m.Mode == MobilityChurn {
			if m.MeanLPMS == nil || m.MeanRoundMS == nil {
				return fail("churn row without mean_lp_ms and mean_round_ms")
			}
			lp, round := *m.MeanLPMS, *m.MeanRoundMS
			if !(lp >= 0) || !(round >= 0) || math.IsInf(lp+round, 0) {
				return fail("churn stage means lp %v, round %v", lp, round)
			}
			if sum := m.MeanCommitMS + lp + round; math.Abs(sum-l.Mean) > 0.01*l.Mean {
				return fail("churn stages sum to %v ms, the mean op takes %v ms", sum, l.Mean)
			}
		}
		if s.Loop == "load" && s.Load == nil {
			return fail("load loop without a load block")
		}
		if s.Loop == "recovery" && s.Recovery == nil {
			return fail("recovery loop without a recovery block")
		}
		if r := s.Recovery; r != nil {
			if r.Epochs < 1 || r.Restarts < 1 {
				return fail("degenerate recovery counts: %+v", *r)
			}
			if r.RecoveryMS <= 0 || r.ReplayedEpochs < 0 || r.SnapshotEpoch < 0 ||
				r.WALBytes < 0 || r.SnapshotBytes <= 0 || r.ReplayMSPerEpoch < 0 {
				return fail("degenerate recovery block: %+v", *r)
			}
			if r.SnapshotEpoch+r.ReplayedEpochs != int64(r.Epochs) {
				return fail("recovery accounting: snapshot epoch %d + replayed %d ≠ %d epochs",
					r.SnapshotEpoch, r.ReplayedEpochs, r.Epochs)
			}
		}
		if s.Load != nil && (s.Load.TextParseMS <= 0 || s.Load.BinaryLoadMS <= 0 || s.Load.BinaryVerifyMS <= 0 || s.Load.Speedup <= 0 || s.Load.MappedLoadMS < 0) {
			return fail("degenerate load comparison: %+v", *s.Load)
		}
		if len(s.Graphs) == 0 {
			return fail("empty graph list")
		}
	}
	return nil
}

// ValidateReportFile loads path and validates it.
func ValidateReportFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("kwbench: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("kwbench: %s: %w", path, err)
	}
	if err := ValidateReport(&rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
