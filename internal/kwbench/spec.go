// Package kwbench is the scenario-driven workload and benchmark subsystem
// behind `kwmds bench`: declarative scenario specs (JSON or TOML files,
// conventionally under scenarios/) describe a graph set, a pipeline
// configuration matrix, a driver and a load shape; the runner executes the
// scenario through warmup and measure phases and exports latency
// percentiles, throughput and allocation counts into the unified
// BENCH_kwbench.json. It is the repository's one scenario harness.
// Scenario.Validate fixes how its knobs compose. A closed- or open-loop
// scenario runs on either driver (inproc-fast or http-serve) over any
// graph set, selection and matrix; cross_check needs inproc-fast, and a
// mix with mutate weight needs a spawned http-serve. Mobility, load and
// recovery scenarios take no loop spec and build their own graphs, and
// run only on inproc-fast; mobility and recovery take exactly one matrix
// combo. Every matrix algo is kw or kw2, and each matrix list names a
// value at most once.
//
// A spec is JSON, or TOML in the subset toml.go reads. See
// docs/BENCHMARKS.md for the methodology and the scenario file format.
package kwbench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"kwmds"
)

// MaxOpenOps caps an open-loop scenario's planned operation count
// (rate × duration): the dispatch schedule is precomputed, so the cap
// bounds the runner's memory.
const MaxOpenOps = 1_000_000

// Driver names.
const (
	// DriverInprocFast runs each operation through the facade's fastpath
	// backend (Options.Sequential) in-process — the cold-solve compute path.
	// Cross-checks re-solve its answers on the message-passing simulation.
	DriverInprocFast = "inproc-fast"
	// DriverHTTPServe drives POST /v1/solve against a serve instance it
	// spawns in-process. The full stack — HTTP, JSON codec, worker pool,
	// LRU — is on the measured path.
	DriverHTTPServe = "http-serve"
)

// Scenario is the declarative description of one benchmark run. Exactly one
// loop mode (Closed or Open) must be set, except for mobility scenarios,
// which replay a trace epoch by epoch and take no loop spec.
type Scenario struct {
	// Name identifies the scenario in reports; results merged into
	// BENCH_kwbench.json replace earlier results with the same name.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Driver is one of inproc-fast | http-serve.
	Driver string `json:"driver"`
	// Graphs is the preloaded set operations select from. Empty is valid
	// only for mobility scenarios (they generate their own snapshots).
	Graphs []GraphSpec `json:"graphs,omitempty"`
	// Select picks how operations choose a graph from the set:
	// "uniform" (default) or "zipfian" (rank-skewed toward the first
	// graphs, YCSB-style).
	Select string `json:"select,omitempty"`
	// Theta is the zipfian skew s > 1 (default 1.1); ignored for uniform.
	Theta float64 `json:"theta,omitempty"`

	// Mix, when set, makes the workload a mixed-operation one: each
	// operation's kind (cached_solve | cold_solve | mutate)
	// is drawn from these weights using the scenario's seeded selection
	// stream, so the kind sequence is as deterministic as the graph
	// choices. nil keeps the legacy single-shape workload (every op a
	// cached_solve).
	Mix *MixSpec `json:"mix,omitempty"`

	// SLO, when set, turns the scenario into a regression gate: after the
	// run, the measured percentiles and error/shed rates are checked
	// against these bounds and any violation makes `kwmds bench` exit
	// non-zero (the report is still written first, so the offending
	// numbers are inspectable).
	SLO *SLOSpec `json:"slo,omitempty"`

	// Matrix is the pipeline configuration grid; operations cycle through
	// its cross product.
	Matrix Matrix `json:"matrix,omitempty"`

	// Closed configures closed-loop load: a fixed worker count, each
	// issuing the next operation as soon as its previous one returns.
	Closed *ClosedLoop `json:"closed,omitempty"`
	// Open configures open-loop load: operations dispatched at a target
	// rate regardless of completions; latency is measured from the
	// *scheduled* start, so queueing delay is charged to the operation
	// (no coordinated omission).
	Open *OpenLoop `json:"open,omitempty"`

	// WarmupOps are untimed operations run before measurement starts
	// (cache population, pool priming, JIT-ish effects).
	WarmupOps int `json:"warmup_ops,omitempty"`
	// Seeds is the number of distinct rounding seeds operations rotate
	// through (default 1). Against a serve driver, 1 makes the measured
	// phase cache-resident once warmed; a large value makes every
	// operation a fresh computation.
	Seeds int `json:"seeds,omitempty"`

	// CrossCheck re-runs every measured operation on the message-passing
	// simulation and compares the dominating sets member by member; any
	// mismatch fails the scenario. The verification pass runs after the
	// measure phase completes, outside the latency, throughput and
	// allocation windows.
	CrossCheck bool `json:"cross_check,omitempty"`

	// Mobility switches the scenario to a dynamic-graph replay: a
	// random-walk trace is generated and the pipeline re-solves every
	// epoch, recording per-epoch latency and set/edge churn.
	Mobility *MobilitySpec `json:"mobility,omitempty"`

	// Load switches the scenario to a format comparison: one graph is
	// materialized and written as edge-list text and as a kwcsr binary
	// container, then timed loads of both measure the zero-parse win. No
	// loop mode, graphs list or matrix applies.
	Load *LoadSpec `json:"load,omitempty"`

	// Recovery switches the scenario to a durability benchmark: a
	// random-walk churn history is committed through a WAL-backed dyngraph
	// engine (one synced append per epoch — the `serve -data-dir` write
	// path), then the store is reopened Restarts times and each timed op
	// is one full crash recovery (snapshot mmap + log replay), verified
	// against the driven state. No loop mode or graphs list applies; the
	// matrix must name exactly one kw|kw2 combo (the verification solve).
	Recovery *RecoverySpec `json:"recovery,omitempty"`

	// HTTP tunes the http-serve driver; nil selects a spawned in-process
	// server with default sizing.
	HTTP *HTTPSpec `json:"http,omitempty"`
}

// LoadSpec parameterizes a format-comparison scenario. Exactly one of Tier
// and Gen selects the graph.
type LoadSpec struct {
	Tier string `json:"tier,omitempty"`
	Gen  string `json:"gen,omitempty"`
	// Ops is the number of timed binary-container loads (the measured
	// operations of the scenario).
	Ops int `json:"ops"`
	// TextOps is the number of timed edge-list parses the binary loads are
	// compared against (default 1 — text parsing of large graphs is slow,
	// which is the point).
	TextOps int `json:"text_ops,omitempty"`
}

// GraphSpec names one graph of the scenario's preloaded set. Exactly one
// source, Gen or Tier, must be set.
type GraphSpec struct {
	// Name is the graph's identity in reports and graph_ref requests
	// (default: the gen spec or tier name).
	Name string `json:"name,omitempty"`
	// Gen is a generator family spec: udg:n:radius:seed, gnp:n:p:seed,
	// grid:rows:cols, tree:n:seed or ba:n:m:seed (the grammar of
	// gen.FromSpec).
	Gen string `json:"gen,omitempty"`
	// Tier names one of the canonical size tiers (see Tiers).
	Tier string `json:"tier,omitempty"`
}

// Matrix is the cross product of pipeline configurations a scenario sweeps.
type Matrix struct {
	// Algos: kw | kw2 (default [kw]).
	Algos []string `json:"algos,omitempty"`
	// Variants: ln | ln-lnln (default [ln]).
	Variants []string `json:"variants,omitempty"`
	// Ks are trade-off parameters (default [3]; 0 selects k = log ∆).
	Ks []int `json:"ks,omitempty"`
}

// ClosedLoop is fixed-concurrency load.
type ClosedLoop struct {
	// Concurrency is the number of workers issuing operations back to back.
	Concurrency int `json:"concurrency"`
	// Ops is the number of measured operations across all workers.
	Ops int `json:"ops"`
}

// Arrival-rate curves for the open loop.
const (
	// CurveConstant dispatches at the flat target rate (the default).
	CurveConstant = "constant"
	// CurveFlash is a flash crowd: the rate jumps to Rate × PeakFactor
	// inside a window of the measured duration and is Rate elsewhere.
	CurveFlash = "flash"
)

// OpenLoop is target-rate load.
type OpenLoop struct {
	// Rate is the dispatch rate in operations per second (for shaped
	// curves, the baseline/trough rate).
	Rate float64 `json:"rate"`
	// DurationSec is the measured window length.
	DurationSec float64 `json:"duration_sec"`
	// MaxInflight bounds concurrently outstanding operations (default
	// 256). When the bound is hit the dispatcher blocks and the wait is
	// charged to the queued operations' latency.
	MaxInflight int `json:"max_inflight,omitempty"`

	// Curve shapes the arrival rate over the window: "" or "constant"
	// (flat) or "flash" (a burst window at Rate × PeakFactor). Dispatch
	// ticks are derived deterministically from the curve, so a flash
	// schedule is as reproducible as a constant one.
	Curve string `json:"curve,omitempty"`
	// PeakFactor is the flash window's peak-to-baseline rate ratio (≥ 1;
	// default 4).
	PeakFactor float64 `json:"peak_factor,omitempty"`
	// PeakStartFrac/PeakDurFrac place the flash window as fractions of the
	// duration (defaults 0.4 and 0.2).
	PeakStartFrac float64 `json:"peak_start_frac,omitempty"`
	PeakDurFrac   float64 `json:"peak_dur_frac,omitempty"`
}

// Mobility replay modes.
const (
	// MobilityRebuild charges the full epoch processing a rebuild-based
	// pipeline performs: each op builds the epoch's unit-disk CSR from the
	// node positions and cold-solves it through the facade.
	MobilityRebuild = "rebuild"
	// MobilityChurn replays the epoch's link events through the dyngraph
	// mutation API instead of rebuilding: each op applies the edge deltas,
	// commits, and solves the new epoch on a persistent fastpath solver,
	// which replays the previous epoch's LP stage over the changed
	// frontier (bit-identical to a cold solve; falls back internally above
	// the churn threshold).
	MobilityChurn = "churn"
)

// MobilitySpec parameterizes the dynamic-graph replay (internal/mobility's
// bounded random walk).
type MobilitySpec struct {
	N      int     `json:"n"`
	Radius float64 `json:"radius"`
	Speed  float64 `json:"speed"`
	Epochs int     `json:"epochs"`
	Seed   int64   `json:"seed,omitempty"`
	// Mode selects what one epoch's measured op includes (required):
	// rebuild (CSR rebuild + cold solve) or churn (mutation-API delta
	// apply + commit + incremental re-solve). Both measure the same
	// end-to-end epoch processing, so their latencies are directly
	// comparable.
	Mode string `json:"mode,omitempty"`
}

// RecoverySpec parameterizes a durability scenario: the churn history
// (internal/mobility's bounded random walk, as in mobility scenarios) and
// the recovery measurement.
type RecoverySpec struct {
	N      int     `json:"n"`
	Radius float64 `json:"radius"`
	Speed  float64 `json:"speed"`
	// Epochs is the number of committed WAL records the drive phase
	// produces (every third epoch also carries a weight update).
	Epochs int   `json:"epochs"`
	Seed   int64 `json:"seed,omitempty"`
	// Restarts is the number of timed recovery cycles — the scenario's
	// measured operations (default 3; WarmupOps of them are untimed).
	Restarts int `json:"restarts,omitempty"`
	// SnapshotEveryEpochs forwards the WAL rotation policy. 0 disables
	// mid-drive snapshots, so every recovery replays the whole history —
	// the pure-replay-cost arm; a positive value measures
	// snapshot-anchored recovery with at most that many records to replay.
	SnapshotEveryEpochs int `json:"snapshot_every_epochs,omitempty"`
}

// HTTPSpec tunes the http-serve driver.
type HTTPSpec struct {
	// Workers sizes the spawned server's worker pool (0 = the default).
	Workers int `json:"workers,omitempty"`
	// MaxQueue bounds the spawned server's admission queue
	// (server.Config.MaxQueue): solve requests beyond Workers running +
	// MaxQueue waiting are shed with 429. 0 leaves admission unbounded.
	MaxQueue int `json:"max_queue,omitempty"`
	// QueueTimeoutSec bounds how long an admitted request may wait for a
	// worker slot before being shed (server.Config.QueueTimeout). 0
	// disables the timeout.
	QueueTimeoutSec float64 `json:"queue_timeout_sec,omitempty"`
}

// Tiers are the named canonical graph tiers scenario specs may reference:
// one identity per (family, size) so scenarios across trajectories measure
// the same instance. Where a legacy benchmark workload of the same name
// exists (internal/bench workloads), the parameters
// reproduce it exactly — the gnp-40k/gnp-200k radii are the shortest
// decimal representations of the legacy 8/(n−1) probabilities, which
// strconv.ParseFloat round-trips to the identical float64.
var Tiers = map[string]string{
	"udg-500":  "udg:500:0.08:1",
	"udg-1k":   "udg:1000:0.05:1",
	"udg-2k":   "udg:2000:0.04:106",
	"udg-10k":  "udg:10000:0.02:1",
	"udg-20k":  "udg:20000:0.014:109",
	"udg-100k": "udg:100000:0.0065:109",
	"udg-1m":   "udg:1000000:0.002:111",
	"gnp-500":  "gnp:500:0.012:107",
	"gnp-2k":   "gnp:2000:0.003:107",
	"gnp-40k":  "gnp:40000:0.00020000500012500312:110",
	"gnp-200k": "gnp:200000:4.0000200001000004e-05:110",
	"grid-45":  "grid:45:45",
	"tree-10k": "tree:10000:103",
	"ba-2k":    "ba:2000:4:112",
	"ba-100k":  "ba:100000:4:112",
}

// Load reads, decodes and validates a scenario file. The format follows the
// extension: .toml is decoded with the built-in TOML subset, anything else
// as strict JSON. Unknown fields are rejected in both formats.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kwbench: %w", err)
	}
	sc, err := Decode(data, strings.EqualFold(filepath.Ext(path), ".toml"))
	if err != nil {
		return nil, fmt.Errorf("kwbench: %s: %w", path, err)
	}
	return sc, nil
}

// Decode parses a scenario from raw bytes (TOML subset when toml is set,
// strict JSON otherwise) and validates it.
func Decode(data []byte, toml bool) (*Scenario, error) {
	if toml {
		doc, err := parseTOML(data)
		if err != nil {
			return nil, err
		}
		// Round-trip through JSON so both formats share one strict,
		// unknown-field-rejecting decode into the spec struct.
		data, err = json.Marshal(doc)
		if err != nil {
			return nil, err
		}
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after JSON body")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// combos expands the matrix cross product in deterministic order.
type combo struct {
	Algo    string
	Variant string
	K       int
}

func (m Matrix) combos() []combo {
	algos, variants, ks := m.Algos, m.Variants, m.Ks
	if len(algos) == 0 {
		algos = []string{"kw"}
	}
	if len(variants) == 0 {
		variants = []string{"ln"}
	}
	if len(ks) == 0 {
		ks = []int{3}
	}
	var cs []combo
	for _, a := range algos {
		for _, v := range variants {
			for _, k := range ks {
				cs = append(cs, combo{a, v, k})
			}
		}
	}
	return cs
}

// Validate checks the scenario for structural consistency and fills no
// defaults (the runner resolves defaults at execution time so a validated
// spec round-trips unchanged).
func (sc *Scenario) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", sc.Name, fmt.Sprintf(format, args...))
	}
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	switch sc.Driver {
	case DriverInprocFast:
	case DriverHTTPServe:
		if sc.Mobility != nil {
			return bad("mobility replay requires an inproc driver (the serve protocol has no epoch identity)")
		}
		if sc.CrossCheck {
			return bad("cross_check requires an inproc driver")
		}
	case "":
		return bad("missing driver (want %s|%s)", DriverInprocFast, DriverHTTPServe)
	default:
		return bad("unknown driver %q (want %s|%s)", sc.Driver, DriverInprocFast, DriverHTTPServe)
	}
	if err := sc.validateMatrix(); err != nil {
		return err
	}

	// Load and recovery scenarios build their own graph and time their own
	// ops, one after another, on the in-process driver.
	if sc.Load != nil || sc.Recovery != nil {
		shape := "recovery"
		if sc.Load != nil {
			shape = "load"
		}
		if sc.Load != nil && sc.Recovery != nil {
			return bad("load and recovery are mutually exclusive")
		}
		if sc.Mobility != nil {
			return bad("%s and mobility are mutually exclusive", shape)
		}
		if sc.Closed != nil || sc.Open != nil {
			return bad("%s scenarios take no loop spec (their timed ops are the operations)", shape)
		}
		if sc.Driver != DriverInprocFast {
			return bad("%s scenarios require the %s driver", shape, DriverInprocFast)
		}
		if len(sc.Graphs) > 0 {
			return bad("%s scenarios build their own graph; drop the graphs list", shape)
		}
		if sc.CrossCheck || sc.HTTP != nil {
			return bad("%s scenarios take no cross_check or http", shape)
		}
		if sc.Mix != nil || sc.SLO != nil {
			return bad("%s scenarios take no mix or slo", shape)
		}
	}
	if l := sc.Load; l != nil {
		if sc.WarmupOps != 0 {
			return bad("load scenarios take no warmup_ops")
		}
		if (l.Tier == "") == (l.Gen == "") {
			return bad("load: exactly one of tier and gen is required")
		}
		if l.Tier != "" {
			if _, ok := Tiers[l.Tier]; !ok {
				return bad("load: bad tier %q (known: %s)", l.Tier, tierNames())
			}
		}
		if l.Ops < 1 {
			return bad("load needs ops ≥ 1 (got %d)", l.Ops)
		}
		if l.TextOps < 0 {
			return bad("load text_ops must be ≥ 0 (got %d)", l.TextOps)
		}
		return nil
	}
	if r := sc.Recovery; r != nil {
		if r.N < 1 || r.Epochs < 1 || r.Radius <= 0 || r.Speed < 0 {
			return bad("bad recovery parameters n=%d radius=%v speed=%v epochs=%d",
				r.N, r.Radius, r.Speed, r.Epochs)
		}
		if r.Restarts < 0 || r.SnapshotEveryEpochs < 0 {
			return bad("recovery restarts and snapshot_every_epochs must be ≥ 0")
		}
		restarts := r.Restarts
		if restarts == 0 {
			restarts = defaultRecoveryRestarts
		}
		if sc.WarmupOps < 0 {
			return bad("warmup_ops must be ≥ 0 (got %d)", sc.WarmupOps)
		}
		if sc.WarmupOps >= restarts {
			return bad("warmup_ops %d consumes every one of the %d restarts", sc.WarmupOps, restarts)
		}
		if len(sc.Matrix.combos()) != 1 {
			return bad("recovery scenarios take exactly one matrix combo (the verification solve)")
		}
		return nil
	}

	if sc.Mobility != nil {
		if sc.Closed != nil || sc.Open != nil {
			return bad("mobility replay takes no loop spec (epochs run back to back)")
		}
		if len(sc.Graphs) > 0 {
			return bad("mobility replay generates its own snapshots; drop the graphs list")
		}
		m := sc.Mobility
		if m.N < 1 || m.Epochs < 1 || m.Radius <= 0 || m.Speed < 0 {
			return bad("bad mobility parameters n=%d radius=%v speed=%v epochs=%d",
				m.N, m.Radius, m.Speed, m.Epochs)
		}
		if sc.WarmupOps >= m.Epochs {
			return bad("warmup_ops %d consumes every one of the %d epochs", sc.WarmupOps, m.Epochs)
		}
		switch m.Mode {
		case MobilityRebuild, MobilityChurn:
		case "":
			return bad("missing mobility mode (want %s|%s)", MobilityRebuild, MobilityChurn)
		default:
			return bad("unknown mobility mode %q (want %s|%s)", m.Mode, MobilityRebuild, MobilityChurn)
		}
		// Each epoch is one unambiguous op, so a mobility scenario takes
		// exactly one pipeline configuration.
		if len(sc.Matrix.combos()) != 1 {
			return bad("mobility mode %q takes exactly one matrix combo", m.Mode)
		}
		if m.Mode == MobilityChurn && sc.WarmupOps < 1 {
			return bad("mobility mode churn needs warmup_ops ≥ 1 (epoch 0 is the cold load, not a delta op)")
		}
	} else {
		if sc.Closed != nil && sc.Open != nil {
			return bad("conflicting loop modes: exactly one of closed and open")
		}
		if sc.Closed == nil && sc.Open == nil {
			return bad("missing loop mode: exactly one of closed and open")
		}
		if c := sc.Closed; c != nil {
			if c.Concurrency < 1 {
				return bad("closed loop needs concurrency ≥ 1 (got %d)", c.Concurrency)
			}
			if c.Ops < 1 {
				return bad("closed loop needs ops ≥ 1 (got %d)", c.Ops)
			}
		}
		if o := sc.Open; o != nil {
			if !(o.Rate > 0) || math.IsInf(o.Rate, 0) {
				return bad("open loop needs a finite rate > 0 (got %v)", o.Rate)
			}
			if !(o.DurationSec > 0) || math.IsInf(o.DurationSec, 0) {
				return bad("open loop needs a finite duration_sec > 0 (got %v)", o.DurationSec)
			}
			switch o.Curve {
			case "", CurveConstant:
				if o.PeakFactor != 0 || o.PeakStartFrac != 0 || o.PeakDurFrac != 0 {
					return bad("open loop curve knobs (peak_factor, peak_start_frac, peak_dur_frac) require a flash curve")
				}
			case CurveFlash:
				if o.PeakStartFrac < 0 || o.PeakDurFrac < 0 || o.PeakStartFrac+o.PeakDurFrac > 1 ||
					math.IsNaN(o.PeakStartFrac) || math.IsNaN(o.PeakDurFrac) {
					return bad("flash curve needs peak_start_frac, peak_dur_frac ≥ 0 with their sum ≤ 1 (got %v + %v)",
						o.PeakStartFrac, o.PeakDurFrac)
				}
				if o.PeakFactor != 0 && !(o.PeakFactor >= 1 && !math.IsInf(o.PeakFactor, 0)) {
					return bad("flash curve needs a finite peak_factor ≥ 1 (got %v)", o.PeakFactor)
				}
			default:
				return bad("unknown curve %q (want %s|%s)", o.Curve, CurveConstant, CurveFlash)
			}
			// The runner materializes the whole dispatch schedule up
			// front; bound it here so an over-ambitious spec is rejected
			// at load instead of exhausting memory mid-run. A flash curve
			// dispatches more than rate × duration ops, so charge the
			// curve's mean rate factor.
			if planned := o.Rate * o.DurationSec * o.meanRateFactor(); planned > MaxOpenOps {
				return bad("open loop schedules %.0f ops (rate × duration × curve factor); the cap is %d", planned, MaxOpenOps)
			}
			if o.MaxInflight < 0 {
				return bad("open loop max_inflight must be ≥ 0 (got %d)", o.MaxInflight)
			}
		}
		if len(sc.Graphs) == 0 {
			return bad("empty graph set")
		}
	}

	names := map[string]bool{}
	for i, g := range sc.Graphs {
		if (g.Gen == "") == (g.Tier == "") {
			return bad("graph %d: exactly one of gen and tier is required", i)
		}
		if g.Tier != "" {
			if _, ok := Tiers[g.Tier]; !ok {
				return bad("graph %d: bad tier %q (known: %s)", i, g.Tier, tierNames())
			}
		}
		name := g.EffectiveName()
		if names[name] {
			return bad("duplicate graph name %q", name)
		}
		names[name] = true
	}

	switch sc.Select {
	case "", "uniform":
	case "zipfian":
		// NaN fails every comparison, so `<= 1` alone would let it
		// through — and a non-finite skew spins rand.Zipf's rejection
		// loop forever.
		if sc.Theta != 0 && !(sc.Theta > 1 && !math.IsInf(sc.Theta, 0)) {
			return bad("zipfian selection needs a finite theta > 1 (got %v)", sc.Theta)
		}
	default:
		return bad("unknown select %q (want uniform|zipfian)", sc.Select)
	}
	if sc.Seeds < 0 {
		return bad("seeds must be ≥ 0 (got %d)", sc.Seeds)
	}
	if sc.WarmupOps < 0 {
		return bad("warmup_ops must be ≥ 0 (got %d)", sc.WarmupOps)
	}

	if sc.Mix != nil {
		if err := sc.Mix.validate(); err != nil {
			return bad("%v", err)
		}
		if sc.Mobility != nil {
			return bad("mix does not apply to mobility replays")
		}
		if sc.CrossCheck {
			return bad("mix and cross_check are mutually exclusive (mutate ops have no solo re-solve identity)")
		}
		if sc.Mix.Mutate > 0 && sc.Driver != DriverHTTPServe {
			return bad("mix weight mutate requires the %s driver (mutation rides the serve API)", DriverHTTPServe)
		}
	}
	if sc.SLO != nil {
		if sc.Mobility != nil {
			return bad("slo gates closed/open loop scenarios; mobility replays take none")
		}
		if err := sc.SLO.validate(); err != nil {
			return bad("%v", err)
		}
	}

	if sc.HTTP != nil {
		if sc.Driver != DriverHTTPServe {
			return bad("http block is only valid with the %s driver", DriverHTTPServe)
		}
		if sc.HTTP.MaxQueue < 0 {
			return bad("http max_queue must be ≥ 0 (got %d)", sc.HTTP.MaxQueue)
		}
		if sc.HTTP.QueueTimeoutSec < 0 || math.IsNaN(sc.HTTP.QueueTimeoutSec) || math.IsInf(sc.HTTP.QueueTimeoutSec, 0) {
			return bad("http queue_timeout_sec must be a finite value ≥ 0 (got %v)", sc.HTTP.QueueTimeoutSec)
		}
	}
	return nil
}

// validateMatrix checks each matrix list, for every scenario shape. A
// repeated entry is refused too, which bounds the cross product at
// 2 × 2 × (MaxK+1) combos before anything expands it.
func (sc *Scenario) validateMatrix() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", sc.Name, fmt.Sprintf(format, args...))
	}
	m := sc.Matrix
	for i, a := range m.Algos {
		if a != "kw" && a != "kw2" {
			return bad("unknown algo %q (want kw|kw2)", a)
		}
		if slices.Contains(m.Algos[:i], a) {
			return bad("matrix algo %q given twice", a)
		}
	}
	for i, v := range m.Variants {
		if v != "ln" && v != "ln-lnln" {
			return bad("unknown variant %q (want ln|ln-lnln)", v)
		}
		if slices.Contains(m.Variants[:i], v) {
			return bad("matrix variant %q given twice", v)
		}
	}
	for i, k := range m.Ks {
		if k < 0 || k > kwmds.MaxK {
			return bad("k %d outside [0, %d]", k, kwmds.MaxK)
		}
		if slices.Contains(m.Ks[:i], k) {
			return bad("matrix k %d given twice", k)
		}
	}
	return nil
}

// EffectiveName resolves the graph's report/request name.
func (g GraphSpec) EffectiveName() string {
	if g.Name != "" {
		return g.Name
	}
	if g.Tier != "" {
		return g.Tier
	}
	return g.Gen
}

func tierNames() string {
	names := make([]string, 0, len(Tiers))
	for n := range Tiers {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic error messages
	return strings.Join(names, " ")
}
