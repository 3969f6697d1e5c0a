package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// waitersOn polls until the inflight call under key has exactly n waiters.
func waitersOn(t *testing.T, c *resultCache, key string, n int) *inflightCall {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		call := c.inflight[key]
		w := 0
		if call != nil {
			w = call.waiters
		}
		c.mu.Unlock()
		if w == n {
			return call
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("inflight call %q never reached %d waiters", key, n)
	return nil
}

// TestCancelOneWaiterOfMany: a coalesced caller that gives up must get its
// context error immediately, while the computation keeps running for the
// remaining waiter and its result still lands in the cache.
func TestCancelOneWaiterOfMany(t *testing.T) {
	c := newResultCache(4)
	release := make(chan struct{})
	var sawCancel atomic.Bool
	compute := func(cancel <-chan struct{}) (*solveResult, error) {
		select {
		case <-cancel:
			sawCancel.Store(true)
			return nil, errSolveAbandoned
		case <-release:
			return &solveResult{SolveResponse: graphio.SolveResponse{Size: 7}}, nil
		}
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, _, err := c.getOrCompute(ctxA, "k", compute)
		errA <- err
	}()
	waitersOn(t, c, "k", 1)

	resB := make(chan *solveResult, 1)
	go func() {
		v, _, err := c.getOrCompute(context.Background(), "k", compute)
		if err != nil {
			t.Error(err)
		}
		resB <- v
	}()
	call := waitersOn(t, c, "k", 2)

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	// B still waits, so the compute must NOT have been canceled.
	c.mu.Lock()
	canceled := call.canceled
	c.mu.Unlock()
	if canceled {
		t.Fatal("compute canceled while a waiter remained")
	}

	close(release)
	if v := <-resB; v == nil || v.Size != 7 {
		t.Fatalf("surviving waiter got %+v", v)
	}
	if sawCancel.Load() {
		t.Error("compute observed cancel despite a live waiter")
	}
	if v, hit, _ := c.getOrCompute(context.Background(), "k", compute); !hit || v.Size != 7 {
		t.Errorf("result not cached after partial walkout: hit=%v v=%+v", hit, v)
	}
}

// TestCancelAllWaiters: when every caller abandons the call, the compute's
// cancel channel closes, its error is not cached, and a later request for
// the same key starts a fresh computation.
func TestCancelAllWaiters(t *testing.T) {
	c := newResultCache(4)
	var calls atomic.Int32
	compute := func(cancel <-chan struct{}) (*solveResult, error) {
		if calls.Add(1) == 1 {
			<-cancel // first run only completes by cancellation
			return nil, errSolveAbandoned
		}
		return &solveResult{SolveResponse: graphio.SolveResponse{Size: 9}}, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.getOrCompute(ctx, "k", compute)
		errc <- err
	}()
	waitersOn(t, c, "k", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The retry must run compute again (the canceled run is not cached) and
	// must not be wedged by the old call still winding down under the key.
	v, hit, err := c.getOrCompute(context.Background(), "k", compute)
	if err != nil {
		t.Fatal(err)
	}
	if hit || v.Size != 9 {
		t.Fatalf("retry after unanimous walkout: hit=%v v=%+v", hit, v)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2", got)
	}
}

// TestSolveCanceledContext drives the server's solve path with an already-
// canceled request context: the caller gets the context error, nothing is
// cached, and an identical follow-up request computes fresh and succeeds.
func TestSolveCanceledContext(t *testing.T) {
	g, err := gen.UnitDisk(200, 0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, CacheEntries: 8, Graphs: map[string]*graph.Graph{"udg": g}})
	req := &graphio.SolveRequest{GraphRef: "udg", Algo: "kw", K: 3, Seed: 5}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.solve(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("solve with canceled ctx: err = %v, want context.Canceled", err)
	}

	resp, err := s.solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("follow-up request hit the cache; canceled solves must not be cached")
	}
	if resp.Size < 1 || resp.N != 200 {
		t.Errorf("follow-up solve implausible: %+v", resp)
	}
}

// TestInlineBuildHonorsCancel: an inline upload queued behind a held worker
// slot gives up when its client leaves, returning the context error (499)
// instead of waiting to build a graph nobody will read. The cancel here may
// land before the upload reaches the queue; TestAdmissionClientCancel
// cancels one that is already waiting there.
func TestInlineBuildHonorsCancel(t *testing.T) {
	s := New(Config{Workers: 1})
	s.sem <- struct{}{} // occupy the only worker slot
	defer func() { <-s.sem }()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.solve(ctx, &graphio.SolveRequest{Graph: []byte(`{"n":2,"edges":[[0,1]]}`)})
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled inline upload still waiting for a worker slot")
	}
}
