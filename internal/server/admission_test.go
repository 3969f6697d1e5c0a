package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

func postSolveSeed(t *testing.T, url string, seed int64) *http.Response {
	t.Helper()
	b, _ := json.Marshal(graphio.SolveRequest{GraphRef: "g", Algo: "kw", Seed: seed})
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postInline posts a solve of an inline graph. Its client times out, so an
// upload that skips admission and blocks on a held worker slot is reported
// (as a nil response) instead of hanging the test.
func postInline(t *testing.T, url string) *http.Response {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url+"/v1/solve", "application/json",
		strings.NewReader(`{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"seed":1}`))
	if err != nil {
		t.Errorf("inline solve: %v", err)
		return nil
	}
	return resp
}

// assertShed checks (and closes) a 429 response: Retry-After, the stable
// "overloaded" code, and the named cause. A nil response was already
// reported by the poster.
func assertShed(t *testing.T, ctx string, resp *http.Response, cause string) {
	t.Helper()
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("%s: status = %d, want 429", ctx, resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("%s: Retry-After = %q, want \"1\"", ctx, ra)
	}
	var er graphio.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != graphio.CodeOverloaded {
		t.Errorf("%s: error code = %q, want %q", ctx, er.Code, graphio.CodeOverloaded)
	}
	if !strings.Contains(er.Error, cause) {
		t.Errorf("%s: error message %q does not name %q", ctx, er.Error, cause)
	}
}

// TestAdmissionQueueFull pins the shed contract end to end: with the worker
// slot held and the admission queue full, a solve must get 429 with
// Retry-After and the stable "overloaded" error code — and the shed must
// show up in /healthz and /metrics.
func TestAdmissionQueueFull(t *testing.T) {
	srv, ts := admissionServer(t, Config{Workers: 1, MaxQueue: 1, DisableBatching: true})

	srv.sem <- struct{}{} // occupy the only worker slot
	waiter := make(chan error, 1)
	go func() { waiter <- srv.admit(make(chan struct{})) }()
	// Wait until the waiter occupies the single queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, depth := srv.QueueStats(); depth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}

	assertShed(t, "graph_ref solve", postSolveSeed(t, ts.URL, 1), "admission queue full")
	// An inline upload waits for the same slots, so it is shed too.
	assertShed(t, "inline solve", postInline(t, ts.URL), "admission queue full")

	if sheds, _ := srv.QueueStats(); sheds != 2 {
		t.Errorf("sheds = %d, want 2", sheds)
	}

	// The counters are observable on both operational endpoints.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["sheds"] != 2.0 || health["max_queue"] != 1.0 || health["queue_depth"] != 1.0 {
		t.Errorf("healthz counters: sheds=%v max_queue=%v queue_depth=%v",
			health["sheds"], health["max_queue"], health["queue_depth"])
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	metrics, _ := io.ReadAll(mr.Body)
	for _, want := range []string{"kwmds_sheds_total 2\n", "kwmds_queue_depth 1\n", "kwmds_queue_limit 1\n"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Free the slot: the queued waiter must be admitted, not shed — and
	// the next solve must succeed, proving a shed is never cached.
	<-srv.sem
	if err := <-waiter; err != nil {
		t.Fatalf("queued waiter was refused: %v", err)
	}
	<-srv.sem // release the slot the waiter took
	ok := postSolveSeed(t, ts.URL, 1)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(ok.Body)
		t.Fatalf("post-recovery solve = %d: %s", ok.StatusCode, msg)
	}
}

// TestAdmissionQueueTimeout: an admitted solve whose slot wait outlives
// QueueTimeout is shed with the same typed 429.
func TestAdmissionQueueTimeout(t *testing.T) {
	srv, ts := admissionServer(t, Config{Workers: 1, QueueTimeout: 25 * time.Millisecond, DisableBatching: true})

	srv.sem <- struct{}{} // hold the slot past the timeout
	assertShed(t, "graph_ref solve", postSolveSeed(t, ts.URL, 1), "queue timeout")
	assertShed(t, "inline solve", postInline(t, ts.URL), "queue timeout")
	<-srv.sem

	// With the slot free the same requests sail through.
	ok := postSolveSeed(t, ts.URL, 1)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("post-release solve = %d", ok.StatusCode)
	}
	if okInline := postInline(t, ts.URL); okInline != nil {
		defer okInline.Body.Close()
		if okInline.StatusCode != http.StatusOK {
			t.Fatalf("post-release inline solve = %d", okInline.StatusCode)
		}
	}
}

// TestAdmissionUnboundedByDefault: MaxQueue 0 keeps the historical
// queue-without-limit behavior.
func TestAdmissionUnboundedByDefault(t *testing.T) {
	srv, ts := admissionServer(t, Config{Workers: 1, DisableBatching: true})
	srv.sem <- struct{}{}
	done := make(chan int, 1)
	go func() {
		resp := postSolveSeed(t, ts.URL, 2)
		defer resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case code := <-done:
		t.Fatalf("unbounded queue refused a waiter with %d", code)
	case <-time.After(100 * time.Millisecond):
	}
	<-srv.sem
	if code := <-done; code != http.StatusOK {
		t.Fatalf("waiter finished with %d after the slot freed", code)
	}
}
