package kwbench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/hdr"
)

// RunOptions tune an execution without touching the spec.
type RunOptions struct {
	// Quick shrinks the load (ops ÷ 10 with a floor of 8, open-loop
	// windows capped at 0.5 s, replays at 4 epochs) for smoke runs; the
	// graphs themselves are untouched so the measured path is the real
	// one.
	Quick bool
}

// Run executes one validated scenario and returns its result, stamped with
// the running process's environment. The request schedule (graph choices,
// matrix combos, seeds) is precomputed from the spec, so two runs of the
// same scenario issue identical operations.
func Run(sc *Scenario, opts RunOptions) (*ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	res, err := runScenario(sc, opts)
	if err != nil {
		return nil, err
	}
	res.Environment = CurrentEnvironment()
	return res, nil
}

func runScenario(sc *Scenario, opts RunOptions) (*ScenarioResult, error) {
	if sc.Load != nil {
		return runLoad(sc, opts)
	}
	if sc.Recovery != nil {
		return runRecovery(sc, opts)
	}
	if sc.Mobility != nil {
		return runMobility(sc, opts)
	}
	graphs, err := loadGraphs(sc.Graphs)
	if err != nil {
		return nil, err
	}
	loop, concurrency := "open", 0
	if sc.Closed != nil {
		loop, concurrency = "closed", sc.Closed.Concurrency
	} else {
		concurrency = sc.Open.maxInflight()
	}
	driver, err := newDriver(sc, concurrency)
	if err != nil {
		return nil, err
	}
	defer driver.Close()
	if err := driver.Prepare(graphs); err != nil {
		return nil, err
	}

	res := newResult(sc, loop, graphInfos(graphs)...)
	if sc.Closed != nil {
		res.Concurrency = concurrency
	}
	if err := runLoop(sc, opts, driver, graphs, res); err != nil {
		return nil, err
	}
	if hd, ok := driver.(*httpDriver); ok {
		hits, misses := hd.Stats()
		if total := hits + misses; total > 0 {
			rate := float64(hits) / float64(total)
			res.HitRate = &rate
		}
	}
	if res.Mismatches > 0 {
		return nil, fmt.Errorf("kwbench: scenario %q: %d/%d cross-checked operations disagreed with the reference backend (bit-identical contract broken)",
			sc.Name, res.Mismatches, res.CrossChecked)
	}
	// The gate itself lives in the CLI: bounds are checked here and any
	// violations recorded on the result, but the report is written before
	// `kwmds bench` exits non-zero.
	evaluateSLO(sc, res)
	return res, nil
}

// newResult fills the row header every scenario shape shares.
func newResult(sc *Scenario, loop string, graphs ...GraphInfo) *ScenarioResult {
	return &ScenarioResult{
		Name:        sc.Name,
		Description: sc.Description,
		Driver:      sc.Driver,
		Loop:        loop,
		Graphs:      graphs,
		Combos:      len(sc.Matrix.combos()),
		Seeds:       effectiveSeeds(sc),
		WarmupOps:   sc.WarmupOps,
	}
}

// effectiveSeeds resolves the seed-rotation width. Load and recovery
// scenarios rotate none: a load solves nothing, and recovery's one
// verification solve uses seed 1.
func effectiveSeeds(sc *Scenario) int {
	if sc.Seeds < 1 || sc.Load != nil || sc.Recovery != nil {
		return 1
	}
	return sc.Seeds
}

// loadGraphs materializes the scenario's graph set, timing each graph's
// generation into LoadMS so reports separate graph-acquisition cost from
// solve cost.
func loadGraphs(specs []GraphSpec) ([]LoadedGraph, error) {
	out := make([]LoadedGraph, 0, len(specs))
	for _, s := range specs {
		lg := LoadedGraph{Name: s.EffectiveName()}
		spec := s.Gen
		if s.Tier != "" {
			spec = Tiers[s.Tier]
		}
		t0 := time.Now()
		g, err := gen.FromSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("kwbench: graph %q: %w", lg.Name, err)
		}
		lg.G = g
		lg.LoadMS = float64(time.Since(t0)) / float64(time.Millisecond)
		out = append(out, lg)
	}
	return out, nil
}

func graphInfos(graphs []LoadedGraph) []GraphInfo {
	infos := make([]GraphInfo, len(graphs))
	for i, lg := range graphs {
		infos[i] = GraphInfo{Name: lg.Name, N: lg.G.N(), M: lg.G.M(), LoadMS: lg.LoadMS}
	}
	return infos
}

// buildRequests precomputes n operations: graph selection via the
// scenario's distribution, matrix combos cycled in order, seeds rotated
// over the configured width. Mixed workloads additionally draw each op's
// kind from the same seeded stream. Scenarios without a mix produce
// byte-identical schedules to earlier versions.
func buildRequests(sc *Scenario, nGraphs, n int) []Request {
	combos := sc.Matrix.combos()
	seeds := effectiveSeeds(sc)
	rng := rand.New(rand.NewSource(1))
	var zipf *rand.Zipf
	if sc.Select == "zipfian" && nGraphs > 1 {
		theta := sc.Theta
		if theta == 0 {
			theta = 1.1
		}
		zipf = rand.NewZipf(rng, theta, 1, uint64(nGraphs-1))
	}
	reqs := make([]Request, n)
	for i := range reqs {
		gi := 0
		if nGraphs > 1 {
			if zipf != nil {
				gi = int(zipf.Uint64())
			} else {
				gi = rng.Intn(nGraphs)
			}
		}
		c := combos[i%len(combos)]
		r := Request{
			Graph:   gi,
			Algo:    c.Algo,
			K:       c.K,
			Seed:    1 + int64(i%seeds),
			Variant: c.Variant,
		}
		if sc.Mix != nil {
			r.Kind = sc.Mix.draw(rng)
			switch r.Kind {
			case KindColdSolve:
				// A never-repeated seed far outside every cached window:
				// each cold op is a guaranteed fresh computation.
				r.Seed = coldSeedBase + int64(i)
			case KindMutate:
				// The seed picks which original edge the op toggles.
				r.Seed = int64(i)
			}
		}
		reqs[i] = r
	}
	return reqs
}

// sameAnswer reports whether a measured op agrees with its cross-check:
// the same size and the same membership at every vertex.
func sameAnswer(got, want OpResult) bool {
	return got.Size == want.Size && slices.Equal(got.Set, want.Set)
}

// crossCheck is the verification pass of the loop runner, run strictly
// outside the timing and allocation windows: re-solve every measured
// request on the message-passing simulation and compare the answers. Only
// successfully recorded ops have an answer to compare (errored and shed
// ops are skipped).
func crossCheck(sc *Scenario, graphs []LoadedGraph, measured []Request, col *collector, res *ScenarioResult) error {
	if !sc.CrossCheck {
		return nil
	}
	for i, req := range measured {
		if !col.ok[i] {
			continue
		}
		want, err := solvePacked(graphs[req.Graph].G, pipelineOptions(req.Algo, req.Variant, req.K, req.Seed, false))
		if err != nil {
			return fmt.Errorf("kwbench: scenario %q cross-check: %w", sc.Name, err)
		}
		res.CrossChecked++
		if !sameAnswer(col.answers[i], want) {
			res.Mismatches++
		}
	}
	return nil
}

// runLoop drives a closed or an open loop. A closed loop runs Concurrency
// workers, each pulling the next measured op from a shared counter as soon
// as its previous one returns. An open loop launches one op per
// precomputed curve tick (1/rate apart for the constant curve; the flash
// curve integrates the varying rate); completions never gate dispatch (up
// to the in-flight bound), and each op's latency is measured from its
// scheduled tick, so queueing delay from a saturated backend is charged to
// the op instead of silently slowing the load (the coordinated-omission
// correction). Both run the warmup first, and only successful ops land in
// the latency histogram and throughput; errors and sheds are counted
// separately.
func runLoop(sc *Scenario, opts RunOptions, driver Driver, graphs []LoadedGraph, res *ScenarioResult) error {
	var n int
	var ticks []time.Duration
	if sc.Closed != nil {
		n = sc.Closed.Ops
		if opts.Quick {
			n = quickOps(n)
		}
	} else {
		duration := time.Duration(sc.Open.DurationSec * float64(time.Second))
		if opts.Quick && duration > 500*time.Millisecond {
			duration = 500 * time.Millisecond
		}
		ticks = sc.Open.dispatchTicks(duration)
		n = len(ticks)
	}
	warm := sc.WarmupOps
	reqs := buildRequests(sc, len(graphs), warm+n)
	if err := runWarmup(driver, reqs[:warm], res); err != nil {
		return err
	}
	measured := reqs[warm:]

	col := newCollector(sc, n)
	var stop atomic.Bool // an op error aborts fast unless slo tolerates errors
	var wg sync.WaitGroup
	do := func(i int, from time.Time) {
		got, err := driver.Do(measured[i])
		if col.record(i, measured[i], time.Since(from), got, err) {
			stop.Store(true)
		}
	}

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	if sc.Closed != nil {
		var next atomic.Int64
		for range sc.Closed.Concurrency {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					do(i, time.Now())
				}
			}()
		}
	} else {
		sem := make(chan struct{}, sc.Open.maxInflight())
		for i := 0; i < n && !stop.Load(); i++ {
			sched := start.Add(ticks[i])
			if wait := time.Until(sched); wait > 0 {
				time.Sleep(wait)
			}
			sem <- struct{}{} // the wait (if saturated) lands in this op's latency via sched
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				do(i, sched)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	if col.firstErr != nil {
		return fmt.Errorf("kwbench: scenario %q: %w", sc.Name, col.firstErr)
	}
	fillCommon(res, col.total, col.successes(), elapsed, &msBefore, &msAfter)
	col.finish(res)
	if o := sc.Open; o != nil {
		res.TargetRate = o.Rate
		res.AchievedRate = res.OpsPerSec
		if o.Curve != "" && o.Curve != CurveConstant {
			res.Curve = o.Curve
		}
	}
	return crossCheck(sc, graphs, measured, col, res)
}

// runWarmup executes the untimed warmup requests. The first one is timed
// into ColdMS — against a serve driver it is the cache-populating cold
// request; in-process it is the pool-priming first solve.
func runWarmup(driver Driver, warmup []Request, res *ScenarioResult) error {
	for i, r := range warmup {
		t0 := time.Now()
		if _, err := driver.Do(r); err != nil {
			return fmt.Errorf("kwbench: warmup: %w", err)
		}
		if i == 0 {
			res.ColdMS = float64(time.Since(t0)) / float64(time.Millisecond)
		}
	}
	markWarm(driver)
	return nil
}

// markWarm tells drivers that keep phase-sensitive counters (the spawned
// http driver's cache stats) that warmup is over.
func markWarm(d Driver) {
	if m, ok := d.(interface{ MarkWarm() }); ok {
		m.MarkWarm()
	}
}

// fillCommon computes the shared result block from a merged histogram and
// the mem-stats window.
func fillCommon(res *ScenarioResult, h *hdr.Histogram, ops int, elapsed time.Duration, before, after *runtime.MemStats) {
	res.Ops = ops
	res.ElapsedSec = elapsed.Seconds()
	if res.ElapsedSec > 0 {
		res.OpsPerSec = float64(ops) / res.ElapsedSec
	}
	res.Latency = latencySummary(h)
	if ops > 0 {
		res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		res.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
}

// seqWindow is the measured window of ops that run one after another (a
// replay's epochs, a recovery's restarts): ops from index warm on are
// measured, and the allocation window opens at the first of them.
type seqWindow struct {
	warm          int
	hist          hdr.Histogram
	ops           int
	elapsed       time.Duration
	before, after runtime.MemStats
}

// begin opens the allocation window when op i is the first measured one.
func (w *seqWindow) begin(i int) {
	if i == w.warm {
		runtime.ReadMemStats(&w.before)
	}
}

// record folds op i's latency in when it is a measured op.
func (w *seqWindow) record(i int, lat time.Duration) {
	if i >= w.warm {
		w.hist.Record(lat)
		w.elapsed += lat
		w.ops++
	}
}

// end closes the allocation window and fills res's common block.
func (w *seqWindow) end(res *ScenarioResult) {
	runtime.ReadMemStats(&w.after)
	fillCommon(res, &w.hist, w.ops, w.elapsed, &w.before, &w.after)
}

// runLoad executes a format-comparison scenario: materialize the graph,
// write it as edge-list text and as a kwcsr binary container into a temp
// directory, then time TextOps parses of the text form and Ops loads of the
// binary form. Every load is digest-verified against the original, so the
// comparison cannot silently measure loading a different graph. The binary
// loads are the scenario's measured operations (latency histogram,
// throughput, allocations); the text side lands in the load_compare block.
func runLoad(sc *Scenario, opts RunOptions) (*ScenarioResult, error) {
	spec := sc.Load
	graphs, err := loadGraphs([]GraphSpec{{Tier: spec.Tier, Gen: spec.Gen}})
	if err != nil {
		return nil, err
	}
	g := graphs[0].G
	wantDigest := graphio.Digest(g)

	dir, err := os.MkdirTemp("", "kwbench-load-")
	if err != nil {
		return nil, fmt.Errorf("kwbench: %w", err)
	}
	defer os.RemoveAll(dir)
	textPath := filepath.Join(dir, "graph.edges")
	binPath := filepath.Join(dir, "graph.kwcsr")
	if err := writeGraphFile(textPath, g, func(w *os.File, g *graph.Graph) error {
		return graphio.WriteEdgeList(w, g)
	}); err != nil {
		return nil, err
	}
	if err := writeGraphFile(binPath, g, func(w *os.File, g *graph.Graph) error {
		return graphio.WriteBinaryCSR(w, g, nil)
	}); err != nil {
		return nil, err
	}
	textBytes, binBytes := fileSize(textPath), fileSize(binPath)
	// Warm both files untimed (settles writeback, populates the page cache)
	// so the timed arms measure load cost, not the state the writer left
	// the filesystem in.
	for _, path := range []string{textPath, binPath} {
		if raw, err := os.ReadFile(path); err != nil || len(raw) == 0 {
			return nil, fmt.Errorf("kwbench: warming %s: %w", path, err)
		}
	}

	ops, textOps := spec.Ops, spec.TextOps
	if textOps == 0 {
		textOps = 1
	}
	if opts.Quick {
		ops, textOps = quickOps(ops), 1
	}

	timeLoads := func(path string, n int, read func(*os.File) (*graph.Graph, error)) (*hdr.Histogram, error) {
		h := &hdr.Histogram{}
		// Start each arm with a clean heap: a load allocates on the order
		// of the file size, and GC debt from the previous arm must not be
		// charged to this one.
		runtime.GC()
		for i := 0; i < n; i++ {
			f, err := os.Open(path)
			if err != nil {
				return nil, fmt.Errorf("kwbench: %w", err)
			}
			t0 := time.Now()
			got, err := read(f)
			h.Record(time.Since(t0))
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("kwbench: loading %s: %w", path, err)
			}
			if d := graphio.Digest(got); d != wantDigest {
				return nil, fmt.Errorf("kwbench: load of %s produced digest %s, want %s", path, d, wantDigest)
			}
		}
		return h, nil
	}

	textHist, err := timeLoads(textPath, textOps, func(f *os.File) (*graph.Graph, error) {
		return graphio.ReadEdgeList(f)
	})
	if err != nil {
		return nil, err
	}
	// The verifying reader is the comparison arm with the embedded digest
	// recomputed inside the stopwatch: what `kwmds -graph` pays for a
	// .kwcsr.
	verHist, err := timeLoads(binPath, textOps, func(f *os.File) (*graph.Graph, error) {
		g, _, err := graphio.ReadBinaryCSR(f)
		return g, err
	})
	if err != nil {
		return nil, err
	}
	// The measured operations use the trusted reader: like the text parser,
	// it does no integrity recompute inside the stopwatch — the digest
	// equality check right after each load (outside the timing, same as the
	// text side) is what proves every op loaded the right graph.
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	binHist, err := timeLoads(binPath, ops, func(f *os.File) (*graph.Graph, error) {
		g, _, err := graphio.ReadBinaryCSRTrusted(f)
		return g, err
	})
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	if err != nil {
		return nil, err
	}

	// The zero-copy arm: graphio.OpenMapped aliases the CSR out of an mmap
	// of the container — bounds and offset validation inside the stopwatch,
	// nothing proportional to the adjacency (row-contract and digest
	// verification are deferred APIs; serve runs VerifyStructure once at
	// startup). Both checks run here OUTSIDE the timing, like every other
	// arm's digest check: they touch all pages and prove each op really
	// mapped the right graph rather than deferring the whole cost forever.
	mappedHist := &hdr.Histogram{}
	runtime.GC()
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		m, err := graphio.OpenMapped(binPath)
		mappedHist.Record(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("kwbench: mapped load of %s: %w", binPath, err)
		}
		if verr := m.VerifyStructure(); verr != nil {
			return nil, fmt.Errorf("kwbench: mapped load of %s: %w", binPath, verr)
		}
		d := graphio.Digest(m.Graph())
		if cerr := m.Close(); cerr != nil {
			return nil, fmt.Errorf("kwbench: %w", cerr)
		}
		if d != wantDigest {
			return nil, fmt.Errorf("kwbench: mapped load of %s produced digest %s, want %s", binPath, d, wantDigest)
		}
	}

	res := newResult(sc, "load", graphInfos(graphs)...)
	fillCommon(res, binHist, ops, elapsed, &msBefore, &msAfter)
	// Medians, not means: a single GC pause or writeback stall inside one op
	// would otherwise poison the whole arm, and the arms have few ops.
	text, bin, ver := textHist.Summary(), binHist.Summary(), verHist.Summary()
	lc := &LoadCompare{
		TextOps:        textOps,
		TextParseMS:    text.P50,
		BinaryLoadMS:   bin.P50,
		BinaryVerifyMS: ver.P50,
		MappedLoadMS:   mappedHist.Summary().P50,
		TextBytes:      textBytes,
		BinaryBytes:    binBytes,
	}
	if bin.P50 > 0 {
		lc.Speedup = text.P50 / bin.P50
	}
	res.Load = lc
	return res, nil
}

// writeGraphFile writes g to path through one of the graphio writers.
func writeGraphFile(path string, g *graph.Graph, write func(*os.File, *graph.Graph) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("kwbench: %w", err)
	}
	err = write(f, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("kwbench: writing %s: %w", path, err)
	}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// quickOps shrinks an op count for smoke runs.
func quickOps(ops int) int {
	q := ops / 10
	if q < 8 {
		q = 8
	}
	if q > ops {
		q = ops
	}
	return q
}
