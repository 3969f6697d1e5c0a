package wal

// Shared machinery for the WAL suites: a deterministic churn driver that
// grows a durable log epoch by epoch exactly the way the server's mutate
// path does (NormalizedPending before Commit, digests bracketing each
// record), while keeping the uninterrupted in-memory timeline as the
// oracle the crash/corruption tests compare recoveries against.

import (
	"os"
	"path/filepath"
	"testing"

	"kwmds"
	"kwmds/internal/dyngraph"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/mobility"
)

// epochState is the oracle at one epoch: the exact graph, digest and cost
// vector an uninterrupted run holds after committing that epoch.
type epochState struct {
	digest [digestBytes]byte
	g      *graph.Graph
	costs  []float64
}

// churnWorkload parameterizes one driven history.
type churnWorkload struct {
	name         string
	n, epochs    int
	seed         int64
	radius       float64
	speed        float64
	weightsEvery int // every k-th epoch also rewrites a few weights (0 = never)
}

// driveResult is a driven history: the live log plus, per epoch, the byte
// offset the log reached when that epoch's record became durable (the
// record boundaries a crash can land on) and the oracle state.
type driveResult struct {
	log     *Log
	dyn     *dyngraph.Dynamic
	offsets []int64
	states  []epochState
}

// driveChurn initializes a WAL in dir from the workload's epoch-0 snapshot
// and commits+appends every subsequent epoch with sync, mirroring the
// server's mutate path. The caller owns closing res.log.
func driveChurn(t testing.TB, dir string, w churnWorkload, opts Options) *driveResult {
	t.Helper()
	return driveChurnAcked(t, dir, w, opts, nil)
}

// driveChurnAcked is driveChurn that calls acked, when non-nil, with each
// epoch as soon as its synced append returns.
func driveChurnAcked(t testing.TB, dir string, w churnWorkload, opts Options, acked func(epoch int)) *driveResult {
	t.Helper()
	tr, err := mobility.RandomWalk(w.n, w.radius, w.speed, w.epochs, w.seed)
	if err != nil {
		t.Fatalf("RandomWalk: %v", err)
	}
	rec, err := Open(dir, tr.Graphs[0], nil, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.Mapped != nil {
		t.Fatalf("fresh init returned a mapped snapshot")
	}
	d := rec.Dyn
	res := &driveResult{
		log:     rec.Log,
		dyn:     d,
		offsets: []int64{logHeaderBytes},
		states:  []epochState{{digest: rec.Digest, g: d.Graph()}},
	}
	logPath := filepath.Join(dir, logName(0))
	pre := rec.Digest
	for e := 1; e < len(tr.Graphs); e++ {
		add, rem := mobility.EdgeDeltas(tr.Graphs[e-1], tr.Graphs[e])
		d.ApplyEdgeDeltas(add, rem)
		if w.weightsEvery > 0 && e%w.weightsEvery == 0 {
			for i := 0; i < 3; i++ {
				if err := d.SetWeight((e*7+i*13)%w.n, 1+float64((e+i)%9)); err != nil {
					t.Fatalf("SetWeight: %v", err)
				}
			}
		}
		frame := &Record{Pre: pre}
		frame.Adds, frame.Rems, frame.Weights, frame.Grew = d.NormalizedPending()
		delta, err := d.Commit()
		if err != nil {
			t.Fatalf("epoch %d: Commit: %v", e, err)
		}
		post := pre
		if delta.Next != delta.Prev {
			post = graphio.DigestRaw(delta.Next)
		}
		frame.Epoch, frame.Post = delta.Epoch, post
		if err := res.log.Append(frame, true); err != nil {
			t.Fatalf("epoch %d: Append: %v", e, err)
		}
		if acked != nil {
			acked(e)
		}
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		res.offsets = append(res.offsets, fi.Size())
		res.states = append(res.states, epochState{
			digest: post,
			g:      d.Graph(),
			costs:  append([]float64(nil), d.Costs()...),
		})
		pre = post
	}
	return res
}

// solveState runs one facade solve over an oracle (or recovered) state.
func solveState(t testing.TB, g *graph.Graph, costs []float64, alg string, seed int64) *kwmds.Result {
	t.Helper()
	opts := kwmds.Options{Sequential: true, Seed: seed}
	if alg == "kw2" {
		opts.KnownDelta = true
	}
	if costs != nil {
		opts.Weights = costs
	}
	var res *kwmds.Result
	var err error
	if alg == "kwcds" {
		res, err = kwmds.ConnectedDominatingSet(g, opts)
	} else {
		res, err = kwmds.DominatingSet(g, opts)
	}
	if err != nil {
		t.Fatalf("%s solve: %v", alg, err)
	}
	return res
}

// copyDir clones a state directory so a test can corrupt or truncate the
// copy while the original keeps serving later cases.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// noSnapshots keeps a whole history in one log file, so record boundaries
// map directly to file offsets.
var noSnapshots = Options{SnapshotEveryEpochs: -1, SnapshotEveryBytes: -1}
