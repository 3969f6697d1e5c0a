package wal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/testsupport"
)

func line(n int) *graph.Graph {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return graph.MustNew(n, edges)
}

func TestOpenNoState(t *testing.T) {
	_, err := Open(t.TempDir(), nil, nil, Options{})
	if !errors.Is(err, ErrNoState) {
		t.Fatalf("err = %v, want ErrNoState", err)
	}
}

func TestFreshInitThenReopen(t *testing.T) {
	dir := t.TempDir()
	g := line(10)
	rec, err := Open(dir, g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dyn.Epoch() != 0 || rec.Stats.ReplayedEpochs != 0 {
		t.Fatalf("fresh init at epoch %d, replayed %d", rec.Dyn.Epoch(), rec.Stats.ReplayedEpochs)
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with no initial: the snapshot written at init is the state.
	rec2, err := Open(dir, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Log.Close()
	if rec2.Mapped == nil {
		t.Fatal("restore did not mmap the snapshot")
	}
	defer rec2.Mapped.Close()
	if rec2.Digest != rec.Digest || rec2.Dyn.Epoch() != 0 {
		t.Fatalf("restore digest/epoch mismatch")
	}
	if rec2.Dyn.Graph().M() != g.M() || rec2.Dyn.Graph().N() != g.N() {
		t.Fatalf("restored n=%d m=%d, want n=%d m=%d", rec2.Dyn.Graph().N(), rec2.Dyn.Graph().M(), g.N(), g.M())
	}
}

func TestRoundtripChurn(t *testing.T) {
	dir := t.TempDir()
	w := churnWorkload{name: "rt", n: 40, epochs: 9, seed: 11, radius: 0.25, speed: 0.05, weightsEvery: 3}
	res := driveChurn(t, dir, w, noSnapshots)
	if err := res.log.Close(); err != nil {
		t.Fatal(err)
	}
	last := len(res.states) - 1

	rec, err := Open(dir, nil, nil, noSnapshots)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Log.Close()
	defer rec.Mapped.Close()
	if got := rec.Dyn.Epoch(); got != int64(last) {
		t.Fatalf("recovered epoch %d, want %d", got, last)
	}
	if rec.Stats.ReplayedEpochs != int64(last) {
		t.Fatalf("replayed %d, want %d", rec.Stats.ReplayedEpochs, last)
	}
	if rec.Digest != res.states[last].digest {
		t.Fatalf("recovered digest does not match the oracle")
	}
	// The tree the replay ran through is handed over at the final state.
	if rec.Tree.Root() != graphio.NewDigestTree(rec.Dyn.Graph()).Root() || rec.Tree.Root() != rec.Digest {
		t.Fatalf("handed-over digest tree does not match a fresh tree of the recovered graph")
	}
	// Weight vector must round-trip bit-exactly through record encoding.
	got, want := rec.Dyn.Costs(), res.states[last].costs
	if len(got) != len(want) {
		t.Fatalf("costs length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cost[%d] = %v, want %v (bitwise)", i, got[i], want[i])
		}
	}
	// And the solve over the recovered state is the oracle's, bit for bit.
	testsupport.RequireBitIdentical(t,
		solveState(t, rec.Dyn.Graph(), rec.Dyn.Costs(), "kw", 1),
		solveState(t, res.states[last].g, res.states[last].costs, "kw", 1))
}

func TestVertexGrowthAndWeightOnlyEpochs(t *testing.T) {
	dir := t.TempDir()
	rec, err := Open(dir, line(4), nil, noSnapshots)
	if err != nil {
		t.Fatal(err)
	}
	d, l, pre := rec.Dyn, rec.Log, rec.Digest

	commit := func() {
		t.Helper()
		frame := &Record{Pre: pre}
		frame.Adds, frame.Rems, frame.Weights, frame.Grew = d.NormalizedPending()
		delta, err := d.Commit()
		if err != nil {
			t.Fatal(err)
		}
		post := pre
		if delta.Next != delta.Prev {
			post = graphio.DigestRaw(delta.Next)
		}
		frame.Epoch, frame.Post = delta.Epoch, post
		if err := l.Append(frame, true); err != nil {
			t.Fatal(err)
		}
		pre = post
	}

	// Epoch 1: grow two vertices and wire one in.
	d.AddVertex()
	d.AddVertex()
	if err := d.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	commit()
	// Epoch 2: weight-only (digest must not move).
	if err := d.SetWeight(5, 2.5); err != nil {
		t.Fatal(err)
	}
	commit()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := Open(dir, nil, nil, noSnapshots)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec2.Log.Close()
	defer rec2.Mapped.Close()
	if rec2.Dyn.Epoch() != 2 || rec2.Dyn.Graph().N() != 6 {
		t.Fatalf("recovered epoch %d n %d, want 2, 6", rec2.Dyn.Epoch(), rec2.Dyn.Graph().N())
	}
	if rec2.Digest != pre {
		t.Fatalf("recovered digest mismatch")
	}
	if costs := rec2.Dyn.Costs(); costs == nil || costs[5] != 2.5 {
		t.Fatalf("recovered costs = %v, want weight 2.5 at vertex 5", costs)
	}
}

func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	w := churnWorkload{name: "rot", n: 30, epochs: 11, seed: 5, radius: 0.3, speed: 0.06}
	opts := Options{SnapshotEveryEpochs: 4, SnapshotEveryBytes: -1}
	res := driveChurn(t, dir, w, opts)

	// Mirror the server: the policy trips after the threshold, then the
	// caller snapshots with the just-committed triple.
	if !res.log.ShouldSnapshot() {
		t.Fatal("10 epochs past a threshold of 4 and ShouldSnapshot is false")
	}
	if err := res.log.WriteSnapshot(res.dyn.Graph(), res.dyn.Costs(), res.dyn.Epoch()); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := res.log.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := int64(len(res.states) - 1)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir after rotation = %v, want exactly snapshot+log", names)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(last))); err != nil {
		t.Fatalf("snapshot at epoch %d missing: %v (dir: %v)", last, err, names)
	}

	rec, err := Open(dir, nil, nil, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Log.Close()
	defer rec.Mapped.Close()
	if rec.Stats.SnapshotEpoch != last || rec.Stats.ReplayedEpochs != 0 {
		t.Fatalf("recovery from snapshot %d replayed %d, want %d replayed 0",
			rec.Stats.SnapshotEpoch, rec.Stats.ReplayedEpochs, last)
	}
	if rec.Digest != res.states[last].digest {
		t.Fatalf("post-rotation digest mismatch")
	}
	if costs := rec.Dyn.Costs(); len(res.states[last].costs) > 0 && costs == nil {
		t.Fatalf("rotation dropped the cost vector")
	}
}

// TestSnapshotOfUnloggedStateRefused: the log a snapshot starts carries
// the digest the last record logged, so a snapshot of any other graph is
// refused at the next Open instead of being recovered as the state.
func TestSnapshotOfUnloggedStateRefused(t *testing.T) {
	dir := t.TempDir()
	rec, err := Open(dir, line(6), nil, noSnapshots)
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Dyn
	if err := d.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	frame := &Record{Pre: rec.Digest}
	frame.Adds, frame.Rems, frame.Weights, frame.Grew = d.NormalizedPending()
	delta, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	frame.Epoch, frame.Post = delta.Epoch, graphio.DigestRaw(delta.Next)
	if err := rec.Log.Append(frame, true); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 logged line(6) plus the edge {0, 2}; snapshot epoch 0's graph.
	if err := rec.Log.WriteSnapshot(delta.Prev, nil, delta.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Open(dir, nil, nil, noSnapshots)
	if err == nil {
		rec2.Log.Close()
		rec2.Mapped.Close()
	}
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("reopen over a snapshot of an unlogged state: err = %v, want ErrDigestMismatch", err)
	}
}

func TestShouldSnapshotThresholds(t *testing.T) {
	dir := t.TempDir()
	w := churnWorkload{name: "thresh", n: 30, epochs: 6, seed: 2, radius: 0.3, speed: 0.05}
	res := driveChurn(t, dir, w, Options{SnapshotEveryEpochs: 3, SnapshotEveryBytes: -1})
	defer res.log.Close()
	if !res.log.ShouldSnapshot() {
		t.Fatal("epoch threshold 3 passed but ShouldSnapshot is false")
	}

	dir2 := t.TempDir()
	res2 := driveChurn(t, dir2, w, Options{SnapshotEveryEpochs: -1, SnapshotEveryBytes: 1})
	defer res2.log.Close()
	if !res2.log.ShouldSnapshot() {
		t.Fatal("byte threshold 1 passed but ShouldSnapshot is false")
	}

	dir3 := t.TempDir()
	res3 := driveChurn(t, dir3, w, noSnapshots)
	defer res3.log.Close()
	if res3.log.ShouldSnapshot() {
		t.Fatal("both triggers disabled but ShouldSnapshot is true")
	}
}

func TestUnsyncedAppendDurableAfterClose(t *testing.T) {
	// The graceful-drain contract: a record appended with sync=false must
	// survive a restart provided the log is Closed (Close syncs).
	dir := t.TempDir()
	rec, err := Open(dir, line(6), nil, noSnapshots)
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Dyn
	if err := d.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	frame := &Record{Pre: rec.Digest}
	frame.Adds, frame.Rems, frame.Weights, frame.Grew = d.NormalizedPending()
	delta, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	frame.Epoch, frame.Post = delta.Epoch, graphio.DigestRaw(delta.Next)
	if err := rec.Log.Append(frame, false); err != nil {
		t.Fatal(err)
	}
	m := rec.Log.MetricsSnapshot()
	if m.Appends != 1 {
		t.Fatalf("appends = %d, want 1", m.Appends)
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := Open(dir, nil, nil, noSnapshots)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec2.Log.Close()
	defer rec2.Mapped.Close()
	if rec2.Dyn.Epoch() != 1 || rec2.Digest != frame.Post {
		t.Fatalf("unsynced-then-closed record lost: epoch %d", rec2.Dyn.Epoch())
	}
}

func TestAppendEpochOrderEnforced(t *testing.T) {
	dir := t.TempDir()
	rec, err := Open(dir, line(5), nil, noSnapshots)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	bad := &Record{Epoch: 5, Pre: rec.Digest, Post: rec.Digest}
	if err := rec.Log.Append(bad, true); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("append of epoch 5 after 0: err = %v, want ErrEpochOrder", err)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	// Many goroutines race Append(sync=true) on distinct epochs they claim
	// by committing under a shared mutex — the server's pattern. Every
	// append must come back durable and the fsync count should show
	// batching is at least possible (≤ appends).
	dir := t.TempDir()
	rec, err := Open(dir, line(64), nil, noSnapshots)
	if err != nil {
		t.Fatal(err)
	}
	d, l := rec.Dyn, rec.Log
	pre := rec.Digest
	const writers = 8
	// Build records serially (commits are inherently ordered), then fsync
	// them from concurrent goroutines.
	var frames []*Record
	for e := 1; e <= writers; e++ {
		if err := d.AddEdge(0, e+1); err != nil {
			t.Fatal(err)
		}
		frame := &Record{Pre: pre}
		frame.Adds, frame.Rems, frame.Weights, frame.Grew = d.NormalizedPending()
		delta, err := d.Commit()
		if err != nil {
			t.Fatal(err)
		}
		frame.Epoch, frame.Post = delta.Epoch, graphio.DigestRaw(delta.Next)
		pre = frame.Post
		frames = append(frames, frame)
	}
	errs := make(chan error, writers)
	for _, f := range frames {
		if err := l.Append(f, false); err != nil {
			t.Fatal(err)
		}
	}
	for range frames {
		go func() { errs <- l.Sync() }()
	}
	for range frames {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	m := l.MetricsSnapshot()
	if m.Appends != writers {
		t.Fatalf("appends = %d, want %d", m.Appends, writers)
	}
	if m.Fsyncs > writers {
		t.Fatalf("fsyncs = %d > appends — group commit never coalesced", m.Fsyncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Open(dir, nil, nil, noSnapshots)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Log.Close()
	defer rec2.Mapped.Close()
	if rec2.Dyn.Epoch() != writers {
		t.Fatalf("recovered epoch %d, want %d", rec2.Dyn.Epoch(), writers)
	}
}
