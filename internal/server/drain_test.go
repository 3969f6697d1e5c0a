package server

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// TestGracefulDrain: after stop fires, the in-flight request finishes and is
// answered, new connections are refused, and Graceful returns nil (the
// process exits 0).
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, `"drained"`)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- Graceful(ln, h, stop, 10*time.Second) }()

	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	<-entered
	close(stop)

	// The listener must close promptly: fresh connections get refused
	// while the in-flight handler is still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting long after stop")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	select {
	case resp := <-respc:
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != `"drained"` {
			t.Fatalf("in-flight request answered %d %q", resp.StatusCode, body)
		}
	case err := <-errc:
		t.Fatalf("in-flight request failed: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	if err := <-done; err != nil {
		t.Fatalf("Graceful returned %v, want nil", err)
	}
}

// TestGracefulDrainRealServer smoke-tests the drain against the actual
// service: a solve dispatched just before stop must still be answered 200
// and the drain must return nil.
func TestGracefulDrainRealServer(t *testing.T) {
	g, err := gen.UnitDisk(300, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Graphs: map[string]*graph.Graph{"g": g}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the handler so the test can fire the drain at the precise
	// moment the solve request is in flight.
	entered := make(chan struct{})
	var once sync.Once
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		srv.Handler().ServeHTTP(w, r)
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- Graceful(ln, h, stop, 30*time.Second) }()

	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/solve", "application/json",
			strings.NewReader(`{"graph_ref":"g","k":3,"seed":1}`))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: body}
	}()
	// Fire the drain while the solve handler is running; the handler must
	// finish.
	<-entered
	close(stop)

	res := <-resc
	if res.err != nil {
		t.Fatalf("solve during drain failed: %v", res.err)
	}
	if res.status != 200 {
		t.Fatalf("solve during drain answered %d: %s", res.status, res.body)
	}
	var parsed map[string]any
	if err := json.Unmarshal(res.body, &parsed); err != nil {
		t.Fatalf("solve answered malformed JSON: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Graceful returned %v, want nil", err)
	}
}
