package kwbench

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"kwmds/internal/hdr"
)

// Operation kinds a mixed workload draws from. An empty Request.Kind is the
// legacy single-shape workload and behaves like cached_solve.
const (
	// KindCachedSolve rotates through the scenario's seed window, so once
	// warmed the op is answerable from a serve cache.
	KindCachedSolve = "cached_solve"
	// KindColdSolve uses a unique never-repeated seed, so every op is a
	// fresh computation (a guaranteed cache miss).
	KindColdSolve = "cold_solve"
	// KindMutate toggles one original edge of the op's graph through the
	// serve mutation API (remove if present, add back if removed), bumping
	// the epoch and invalidating that graph's cache entries.
	KindMutate = "mutate"
)

// mixKinds is the fixed draw order — the weight→kind mapping is part of the
// deterministic-schedule contract, so its order must never change.
var mixKinds = [...]string{KindCachedSolve, KindColdSolve, KindMutate}

// coldSeedBase offsets cold_solve seeds far outside any cached_solve seed
// window, so a cold op can never collide with a warmed cache entry.
const coldSeedBase = int64(1) << 32

// MixSpec is the [mix] block: relative weights over operation kinds. Each
// operation's kind is drawn from these weights using the scenario's seeded
// selection stream (weights need not sum to 1 — they are normalized).
type MixSpec struct {
	CachedSolve float64 `json:"cached_solve,omitempty"`
	ColdSolve   float64 `json:"cold_solve,omitempty"`
	Mutate      float64 `json:"mutate,omitempty"`
}

// weights returns the weight vector in mixKinds order.
func (m *MixSpec) weights() [len(mixKinds)]float64 {
	return [...]float64{m.CachedSolve, m.ColdSolve, m.Mutate}
}

func (m *MixSpec) validate() error {
	sum := 0.0
	for i, w := range m.weights() {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("mix weight %s must be a finite value ≥ 0 (got %v)", mixKinds[i], w)
		}
		sum += w
	}
	if !(sum > 0) {
		return fmt.Errorf("mix needs at least one positive weight")
	}
	return nil
}

// draw picks one operation kind, consuming exactly one value of rng so the
// kind sequence is as deterministic as the graph-selection sequence.
func (m *MixSpec) draw(rng *rand.Rand) string {
	w := m.weights()
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	r := rng.Float64() * sum
	for i, x := range w {
		if x <= 0 {
			continue
		}
		if r < x {
			return mixKinds[i]
		}
		r -= x
	}
	// Float rounding can leave r a hair past the last positive weight.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return mixKinds[i]
		}
	}
	return KindCachedSolve
}

// SLOSpec is the [slo] block: bounds checked against the measured result
// after the run, any violation making `kwmds bench` exit non-zero. Fields
// are pointers so an explicit 0 bound is distinct from an omitted one.
type SLOSpec struct {
	// P99MS is a latency ceiling in milliseconds.
	P99MS *float64 `json:"p99_ms,omitempty"`
	// ErrorRate is the ceiling on errors/attempted as a fraction in [0, 1].
	// Setting it (even to 0) also switches the runner to error-tolerant
	// accounting: an operation error is counted and excluded from the
	// latency/throughput stats instead of aborting the run.
	ErrorRate *float64 `json:"error_rate,omitempty"`
	// ShedRate bounds sheds/attempted (429 admission refusals) from above;
	// MinShedRate from below — an overload scenario asserts its overload
	// actually materialized.
	ShedRate    *float64 `json:"shed_rate,omitempty"`
	MinShedRate *float64 `json:"min_shed_rate,omitempty"`
}

func (s *SLOSpec) validate() error {
	set := false
	for _, c := range []struct {
		name string
		p    *float64
		rate bool
	}{
		{"p99_ms", s.P99MS, false},
		{"error_rate", s.ErrorRate, true},
		{"shed_rate", s.ShedRate, true},
		{"min_shed_rate", s.MinShedRate, true},
	} {
		if c.p == nil {
			continue
		}
		set = true
		v := *c.p
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("slo %s must be a finite value ≥ 0 (got %v)", c.name, v)
		}
		if c.rate && v > 1 {
			return fmt.Errorf("slo %s is a fraction in [0, 1] (got %v)", c.name, v)
		}
	}
	if !set {
		return fmt.Errorf("slo block sets no bounds")
	}
	if s.MinShedRate != nil && s.ShedRate != nil && *s.MinShedRate > *s.ShedRate {
		return fmt.Errorf("slo min_shed_rate %v exceeds shed_rate %v", *s.MinShedRate, *s.ShedRate)
	}
	return nil
}

// evaluateSLO checks the measured result against the scenario's bounds and
// attaches the outcome block (bounds echo plus human-phrased violations).
// It never errors: the caller (cli.RunBench) fails AFTER the report is
// written, so the offending numbers stay inspectable.
func evaluateSLO(sc *Scenario, res *ScenarioResult) {
	if sc.SLO == nil {
		return
	}
	s := sc.SLO
	out := &SLOOutcome{Bounds: *s}
	add := func(format string, args ...any) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}
	if s.P99MS != nil && res.Latency.P99 > *s.P99MS {
		add("p99 %.3f ms exceeds the %.3f ms bound", res.Latency.P99, *s.P99MS)
	}
	if s.ErrorRate != nil && res.ErrorRate > *s.ErrorRate {
		add("error rate %.4f exceeds the %.4f bound (%d errors)", res.ErrorRate, *s.ErrorRate, res.Errors)
	}
	if s.ShedRate != nil && res.ShedRate > *s.ShedRate {
		add("shed rate %.4f exceeds the %.4f bound (%d sheds)", res.ShedRate, *s.ShedRate, res.Sheds)
	}
	if s.MinShedRate != nil && res.ShedRate < *s.MinShedRate {
		add("shed rate %.4f is below the %.4f floor (the intended overload never materialized)", res.ShedRate, *s.MinShedRate)
	}
	res.SLO = out
}

// Flash-curve parameter defaults.
const (
	defaultFlashPeakFactor = 4.0
	defaultPeakStartFrac   = 0.4
	defaultPeakDurFrac     = 0.2
)

// flashParams resolves the flash curve's knobs to concrete values.
func (o *OpenLoop) flashParams() (pf, psf, pdf float64) {
	pf = o.PeakFactor
	if pf == 0 {
		pf = defaultFlashPeakFactor
	}
	psf, pdf = o.PeakStartFrac, o.PeakDurFrac
	if psf == 0 && pdf == 0 {
		psf, pdf = defaultPeakStartFrac, defaultPeakDurFrac
	}
	return pf, psf, pdf
}

// maxInflight resolves the in-flight bound (default 256).
func (o *OpenLoop) maxInflight() int {
	if o.MaxInflight <= 0 {
		return 256
	}
	return o.MaxInflight
}

// meanRateFactor is the curve's time-averaged rate multiplier: the planned
// operation count is rate × duration × this (used for the MaxOpenOps cap).
func (o *OpenLoop) meanRateFactor() float64 {
	if o.Curve != CurveFlash {
		return 1
	}
	pf, _, pdf := o.flashParams()
	return 1 + (pf-1)*pdf
}

// dispatchTicks materializes the deterministic dispatch schedule for a
// window of the given length: tick i is operation i's offset from the
// window start. The constant curve reproduces the historical i/rate
// arithmetic exactly; the flash curve integrates dt = 1/r(t).
func (o *OpenLoop) dispatchTicks(duration time.Duration) []time.Duration {
	var ticks []time.Duration
	if o.Curve != CurveFlash {
		interval := time.Duration(float64(time.Second) / o.Rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		for i := 0; ; i++ {
			tick := time.Duration(i) * interval
			if tick >= duration || len(ticks) >= MaxOpenOps {
				break
			}
			ticks = append(ticks, tick)
		}
		return ticks
	}
	d := duration.Seconds()
	pf, psf, pdf := o.flashParams()
	for t := 0.0; t < d && len(ticks) < MaxOpenOps; {
		ticks = append(ticks, time.Duration(t*float64(time.Second)))
		rate := o.Rate
		if t >= psf*d && t < (psf+pdf)*d {
			rate = o.Rate * pf
		}
		t += 1 / rate
	}
	return ticks
}

// bucketStats is one operation kind's latency/outcome split of the
// collector.
type bucketStats struct {
	hist   *hdr.Histogram
	ops    int
	errors int
	sheds  int
}

// collector accumulates per-operation outcomes for both loop modes under
// one mutex: the shared latency histogram, success answers for the
// cross-check pass, error/shed counters, and the optional per-kind split.
// Only successful operations land in the histograms,
// answers and throughput (errors and sheds are counted, not measured) — an
// errored op has no meaningful latency and would poison the percentiles.
type collector struct {
	mu    sync.Mutex
	total *hdr.Histogram
	// answers keeps each successful op's result for the cross-check pass
	// (nil unless the scenario cross-checks). The inproc driver returns
	// caller-owned sets, so keeping a reference copies nothing.
	answers  []OpResult
	ok       []bool
	errors   int
	sheds    int
	firstErr error
	// tolerate keeps the run alive through operation errors (counting them
	// instead of aborting): set when the scenario's slo bounds error_rate.
	// Sheds never abort regardless.
	tolerate bool
	byKind   map[string]*bucketStats
}

func newCollector(sc *Scenario, n int) *collector {
	c := &collector{
		total:    &hdr.Histogram{},
		ok:       make([]bool, n),
		tolerate: sc.SLO != nil && sc.SLO.ErrorRate != nil,
	}
	if sc.CrossCheck {
		c.answers = make([]OpResult, n)
	}
	if sc.Mix != nil {
		c.byKind = make(map[string]*bucketStats)
	}
	return c
}

// record folds one operation outcome in and reports whether the run must
// abort (an operation error without error tolerance).
func (c *collector) record(op int, req Request, lat time.Duration, got OpResult, err error) (abort bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kb := c.kindBucket(req)
	switch {
	case err != nil:
		c.errors++
		if kb != nil {
			kb.errors++
		}
		if !c.tolerate {
			if c.firstErr == nil {
				c.firstErr = err
			}
			return true
		}
	case got.Shed:
		c.sheds++
		if kb != nil {
			kb.sheds++
		}
	default:
		c.total.Record(lat)
		if c.answers != nil {
			c.answers[op] = got
		}
		c.ok[op] = true
		if kb != nil {
			kb.hist.Record(lat)
			kb.ops++
		}
	}
	return false
}

func (c *collector) kindBucket(req Request) *bucketStats {
	if c.byKind == nil {
		return nil
	}
	k := req.Kind
	if k == "" {
		k = KindCachedSolve
	}
	b := c.byKind[k]
	if b == nil {
		b = &bucketStats{hist: &hdr.Histogram{}}
		c.byKind[k] = b
	}
	return b
}

// successes counts the operations that were recorded.
func (c *collector) successes() int {
	n := 0
	for _, b := range c.ok {
		if b {
			n++
		}
	}
	return n
}

// finish writes the collector's error/shed accounting and per-kind rows
// into the result. res.Ops (successes) must be set first.
func (c *collector) finish(res *ScenarioResult) {
	res.Errors = c.errors
	res.Sheds = c.sheds
	if attempted := res.Ops + c.errors + c.sheds; attempted > 0 {
		res.ErrorRate = float64(c.errors) / float64(attempted)
		res.ShedRate = float64(c.sheds) / float64(attempted)
	}
	for _, k := range mixKinds {
		b := c.byKind[k]
		if b == nil {
			continue
		}
		res.MixRows = append(res.MixRows, OpKindRow{
			Kind: k, Ops: b.ops, Errors: b.errors, Sheds: b.sheds,
			Latency: latencySummary(b.hist),
		})
	}
}
