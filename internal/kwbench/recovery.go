package kwbench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"kwmds"
	"kwmds/internal/graphio"
	"kwmds/internal/hdr"
	"kwmds/internal/mobility"
	"kwmds/internal/wal"
)

// runRecovery executes a durability scenario. Phase one (untimed) drives a
// random-walk churn history through a WAL-backed dyngraph engine: every
// epoch applies the trace's link events plus periodic weight updates,
// commits, and appends one synced record — the exact write path of `kwmds
// serve -data-dir`. Phase two reopens the store Restarts times; each timed
// op is one full crash recovery (snapshot mmap + verification + log
// replay), and every recovered state is checked against the driven oracle:
// digest equality plus a bit-identical solve. A divergence fails the
// scenario — the benchmark doubles as a recovery correctness gate.
func runRecovery(sc *Scenario, opts RunOptions) (*ScenarioResult, error) {
	r := sc.Recovery
	epochs, restarts := r.Epochs, r.Restarts
	if restarts == 0 {
		restarts = defaultRecoveryRestarts
	}
	if opts.Quick {
		if limit := max(sc.WarmupOps+2, 4); epochs > limit {
			epochs = limit
		}
		if limit := max(sc.WarmupOps+1, 2); restarts > limit {
			restarts = limit
		}
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	fail := func(format string, args ...any) (*ScenarioResult, error) {
		return nil, fmt.Errorf("kwbench: scenario %q: %s", sc.Name, fmt.Sprintf(format, args...))
	}

	// epochs committed records need epochs+1 topology snapshots.
	trace, err := mobility.RandomWalk(r.N, r.Radius, r.Speed, epochs+1, seed)
	if err != nil {
		return fail("%v", err)
	}
	dir, err := os.MkdirTemp("", "kwbench-recovery-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(dir)

	// Spec 0 means "never snapshot mid-drive" — the scenario then measures
	// pure replay cost over the full history; a positive value exercises
	// the rotation policy and measures snapshot-anchored recovery.
	wopts := wal.Options{SnapshotEveryEpochs: -1, SnapshotEveryBytes: -1}
	if r.SnapshotEveryEpochs > 0 {
		wopts.SnapshotEveryEpochs = r.SnapshotEveryEpochs
	}
	rec, err := wal.Open(dir, trace.Graphs[0], nil, wopts)
	if err != nil {
		return fail("open: %v", err)
	}
	dyn, pre := rec.Dyn, rec.Digest
	var deltaEvents int
	var appendTotal time.Duration
	for e := 1; e <= epochs; e++ {
		add, rem := mobility.EdgeDeltas(trace.Graphs[e-1], trace.Graphs[e])
		dyn.ApplyEdgeDeltas(add, rem)
		if e%3 == 0 {
			// Weight churn rides along so recovery also replays weight
			// records, not just topology.
			if err := dyn.SetWeight((e*13)%r.N, 1+float64(e%7)); err != nil {
				return fail("epoch %d: %v", e, err)
			}
		}
		wr := &wal.Record{Pre: pre}
		wr.Adds, wr.Rems, wr.Weights, wr.Grew = dyn.NormalizedPending()
		delta, err := dyn.Commit()
		if err != nil {
			return fail("epoch %d: %v", e, err)
		}
		post := pre
		if delta.Next != delta.Prev {
			post = graphio.DigestRaw(delta.Next)
		}
		wr.Epoch, wr.Post = delta.Epoch, post
		t0 := time.Now()
		if err := rec.Log.Append(wr, true); err != nil {
			return fail("epoch %d append: %v", e, err)
		}
		appendTotal += time.Since(t0)
		if rec.Log.ShouldSnapshot() {
			if err := rec.Log.WriteSnapshot(dyn.Graph(), dyn.Costs(), delta.Epoch); err != nil {
				return fail("epoch %d snapshot: %v", e, err)
			}
		}
		deltaEvents += len(add) + len(rem)
		pre = post
	}
	finalDigest := pre
	c := sc.Matrix.combos()[0]
	oracleOpts := pipelineOptions(c.Algo, c.Variant, c.K, 1, true)
	oracleOpts.Weights = dyn.Costs()
	want, err := kwmds.DominatingSet(dyn.Graph(), oracleOpts)
	if err != nil {
		return fail("oracle solve: %v", err)
	}
	if err := rec.Log.Close(); err != nil {
		return fail("close: %v", err)
	}
	if rec.Mapped != nil {
		rec.Mapped.Close()
	}

	res := &ScenarioResult{
		Name:        sc.Name,
		Description: sc.Description,
		Driver:      sc.Driver,
		Loop:        "recovery",
		Graphs:      []GraphInfo{{Name: fmt.Sprintf("udg-walk-%d", r.N), N: dyn.Graph().N(), M: dyn.Graph().M()}},
		Combos:      1,
		Seeds:       1,
		WarmupOps:   sc.WarmupOps,
	}

	hist := &hdr.Histogram{}
	var stats wal.RecoveryStats
	measuredOps := 0
	var elapsed time.Duration
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	for i := 0; i < restarts; i++ {
		if i == sc.WarmupOps {
			runtime.ReadMemStats(&msBefore)
		}
		t0 := time.Now()
		got, err := wal.Open(dir, nil, nil, wopts)
		lat := time.Since(t0)
		if err != nil {
			return fail("restart %d: %v", i, err)
		}
		stats = got.Stats
		verr := func() error {
			if got.Digest != finalDigest {
				return fmt.Errorf("recovered digest diverges from the driven state")
			}
			if ep := got.Dyn.Epoch(); ep != int64(epochs) {
				return fmt.Errorf("recovered epoch %d, want %d", ep, epochs)
			}
			checkOpts := oracleOpts
			checkOpts.Weights = got.Dyn.Costs()
			res2, err := kwmds.DominatingSet(got.Dyn.Graph(), checkOpts)
			if err != nil {
				return err
			}
			return sameSolve(res2, want)
		}()
		got.Log.Close()
		if got.Mapped != nil {
			got.Mapped.Close()
		}
		if verr != nil {
			return fail("restart %d: %v", i, verr)
		}
		if i == 0 && sc.WarmupOps > 0 {
			res.ColdMS = float64(lat) / float64(time.Millisecond)
		}
		if i >= sc.WarmupOps {
			hist.Record(lat)
			elapsed += lat
			measuredOps++
		}
	}
	runtime.ReadMemStats(&msAfter)

	fillCommon(res, hist, measuredOps, elapsed, &msBefore, &msAfter)
	rr := &RecoveryResult{
		Epochs:         epochs,
		Restarts:       restarts,
		SnapshotEpoch:  stats.SnapshotEpoch,
		ReplayedEpochs: stats.ReplayedEpochs,
		WALBytes:       stats.WALBytes,
		SnapshotBytes:  stats.SnapshotBytes,
		RecoveryMS:     res.Latency.P50,
		MeanEdgeDeltas: float64(deltaEvents) / float64(epochs),
		AppendMS:       float64(appendTotal) / float64(time.Millisecond) / float64(epochs),
	}
	if stats.ReplayedEpochs > 0 {
		rr.ReplayMSPerEpoch = rr.RecoveryMS / float64(stats.ReplayedEpochs)
	}
	res.Recovery = rr
	return res, nil
}

const defaultRecoveryRestarts = 3

// sameSolve enforces the bit-identical recovery contract on a facade
// result pair: set membership, fractional vector and every scalar must
// match exactly (floats by IEEE bits).
func sameSolve(got, want *kwmds.Result) error {
	if got.Size != want.Size || got.K != want.K ||
		math.Float64bits(got.WeightedCost) != math.Float64bits(want.WeightedCost) ||
		math.Float64bits(got.LPObjective) != math.Float64bits(want.LPObjective) {
		return fmt.Errorf("recovered solve diverges: size/cost/objective (%d, %v, %v), want (%d, %v, %v)",
			got.Size, got.WeightedCost, got.LPObjective, want.Size, want.WeightedCost, want.LPObjective)
	}
	if len(got.InDS) != len(want.InDS) || len(got.Fractional) != len(want.Fractional) {
		return fmt.Errorf("recovered solve diverges: vector lengths (%d, %d), want (%d, %d)",
			len(got.InDS), len(got.Fractional), len(want.InDS), len(want.Fractional))
	}
	for v := range want.InDS {
		if got.InDS[v] != want.InDS[v] {
			return fmt.Errorf("recovered solve diverges: membership at vertex %d", v)
		}
	}
	for v := range want.Fractional {
		if math.Float64bits(got.Fractional[v]) != math.Float64bits(want.Fractional[v]) {
			return fmt.Errorf("recovered solve diverges: fractional value at vertex %d", v)
		}
	}
	return nil
}
