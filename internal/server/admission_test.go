package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

func admissionServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, err := gen.Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Graphs = map[string]*graph.Graph{"g": g}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// admissionClient bounds every request these tests send, so a regression
// that leaves a request waiting behind a held worker slot fails the test
// instead of hanging it.
var admissionClient = &http.Client{Timeout: 5 * time.Second}

// post sends a solve body. A transport error, the client timeout included,
// is reported and yields nil; post never calls Fatal, so it is safe off the
// test goroutine.
func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := admissionClient.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("solve %s: %v", body, err)
		return nil
	}
	return resp
}

// hold occupies the worker slot of a one-worker server until release is
// called or the test ends. The cleanup runs before httptest.Server.Close,
// which would otherwise wait forever for a handler blocked on the slot.
func hold(t *testing.T, srv *Server) (release func()) {
	srv.sem <- struct{}{}
	var once sync.Once
	release = func() { once.Do(func() { <-srv.sem }) }
	t.Cleanup(release)
	return release
}

// waitDepth polls until the admission queue holds want computations.
func waitDepth(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, depth := srv.QueueStats()
		if depth == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue_depth = %d, want %d", depth, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertShed checks (and closes) a 429 response: Retry-After, the stable
// "overloaded" code, and the named cause. A nil response was already
// reported by the poster.
func assertShed(t *testing.T, resp *http.Response, cause string) {
	t.Helper()
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var er graphio.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != graphio.CodeOverloaded {
		t.Errorf("error code = %q, want %q", er.Code, graphio.CodeOverloaded)
	}
	if !strings.Contains(er.Error, cause) {
		t.Errorf("error message %q does not name %q", er.Error, cause)
	}
}

// assertOK checks (and closes) a 200 response.
func assertOK(t *testing.T, resp *http.Response) {
	t.Helper()
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200: %s", resp.StatusCode, msg)
	}
}

// assertCounters checks that /healthz and /metrics both report the shed
// count, the queue depth and the queue bound.
func assertCounters(t *testing.T, srv *Server, ts *httptest.Server, sheds, depth int) {
	t.Helper()
	hr, err := admissionClient.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["sheds"] != float64(sheds) || health["queue_depth"] != float64(depth) ||
		health["max_queue"] != float64(srv.cfg.MaxQueue) {
		t.Errorf("healthz counters: sheds=%v queue_depth=%v max_queue=%v, want %d %d %d",
			health["sheds"], health["queue_depth"], health["max_queue"], sheds, depth, srv.cfg.MaxQueue)
	}
	mr, err := admissionClient.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	metrics, _ := io.ReadAll(mr.Body)
	for _, want := range []string{
		fmt.Sprintf("kwmds_sheds_total %d\n", sheds),
		fmt.Sprintf("kwmds_queue_depth %d\n", depth),
		fmt.Sprintf("kwmds_queue_limit %d\n", srv.cfg.MaxQueue),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// admissionPaths are the ways a computation waits for a worker slot: a
// graph_ref solve, an inline upload (whose graph build takes the slot) and
// a graph_ref solve on the sharded engine. Each admission test below checks
// one clause of the contract on all three.
var admissionPaths = []struct {
	name   string
	shards int
	body   string
}{
	{"graph_ref", 0, `{"graph_ref":"g","seed":1}`},
	{"inline", 0, `{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"seed":1}`},
	{"sharded", 2, `{"graph_ref":"g","seed":1}`},
}

// onEveryPath runs check as one subtest per admission path, each on a fresh
// server built from cfg.
func onEveryPath(t *testing.T, cfg Config, check func(t *testing.T, srv *Server, ts *httptest.Server, body string)) {
	for _, p := range admissionPaths {
		t.Run(p.name, func(t *testing.T) {
			cfg := cfg
			cfg.Shards = p.shards
			srv, ts := admissionServer(t, cfg)
			check(t, srv, ts, p.body)
		})
	}
}

// TestAdmissionQueueFull pins the shed contract end to end: with the worker
// slot held and the admission queue full, a solve on every path gets 429
// with Retry-After and the stable "overloaded" error code, and the shed
// shows up in /healthz and /metrics.
func TestAdmissionQueueFull(t *testing.T) {
	onEveryPath(t, Config{Workers: 1, MaxQueue: 1}, admitQueueFull)
}

// TestAdmissionQueueTimeout: a solve on every path whose slot wait outlives
// QueueTimeout is shed with the same typed 429.
func TestAdmissionQueueTimeout(t *testing.T) {
	onEveryPath(t, Config{Workers: 1, QueueTimeout: 25 * time.Millisecond}, admitQueueTimeout)
}

// TestAdmissionClientCancel: a computation on every path that is queued
// behind a held slot leaves the admission queue when its client leaves.
func TestAdmissionClientCancel(t *testing.T) {
	onEveryPath(t, Config{Workers: 1, MaxQueue: 1}, admitClientCancel)
}

// admitQueueFull: with the slot held and the one queue place taken, the
// solve is shed at once, and the shed shows on both operational endpoints.
// Once the slot frees, the queued waiter is admitted and the same solve
// succeeds, so a shed is never cached.
func admitQueueFull(t *testing.T, srv *Server, ts *httptest.Server, body string) {
	release := hold(t, srv)
	waiter := make(chan error, 1)
	go func() {
		err := srv.admit(make(chan struct{}))
		if err == nil {
			<-srv.sem
		}
		waiter <- err
	}()
	waitDepth(t, srv, 1)

	assertShed(t, post(t, ts.URL, body), "admission queue full")
	assertCounters(t, srv, ts, 1, 1)

	release()
	if err := <-waiter; err != nil {
		t.Fatalf("queued waiter was refused: %v", err)
	}
	assertOK(t, post(t, ts.URL, body))
}

// admitQueueTimeout: a solve whose slot wait outlives QueueTimeout is shed;
// with the slot free, the same solve succeeds.
func admitQueueTimeout(t *testing.T, srv *Server, ts *httptest.Server, body string) {
	release := hold(t, srv)
	assertShed(t, post(t, ts.URL, body), "queue timeout")
	assertCounters(t, srv, ts, 1, 0)
	release()
	assertOK(t, post(t, ts.URL, body))
}

// admitClientCancel: a queued solve whose client leaves returns the context
// error (which handleSolve answers with 499), and the computation gives up
// its place in the admission queue while the slot is still held, instead of
// waiting to run for nobody.
func admitClientCancel(t *testing.T, srv *Server, ts *httptest.Server, body string) {
	hold(t, srv)
	req, err := graphio.DecodeSolveRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := srv.solve(ctx, req)
		errc <- err
	}()
	waitDepth(t, srv, 1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled solve still waiting for a worker slot")
	}
	waitDepth(t, srv, 0)
	if sheds, _ := srv.QueueStats(); sheds != 0 {
		t.Errorf("sheds = %d, want 0: a client that leaves is not a shed", sheds)
	}
}

// TestAdmissionUnboundedByDefault: MaxQueue 0 keeps the historical
// queue-without-limit behavior.
func TestAdmissionUnboundedByDefault(t *testing.T) {
	srv, ts := admissionServer(t, Config{Workers: 1})
	release := hold(t, srv)
	done := make(chan int, 1)
	go func() {
		resp := post(t, ts.URL, `{"graph_ref":"g","seed":2}`)
		if resp == nil {
			done <- 0
			return
		}
		defer resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case code := <-done:
		t.Fatalf("unbounded queue refused a waiter with %d", code)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("waiter finished with %d after the slot freed", code)
	}
}
