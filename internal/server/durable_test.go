package server

// End-to-end durability: the serve layer over internal/wal. Mutates answer
// durable:true only after the fsync, sync=false opts out, a restart
// recovers the exact state, DELETE releases the mmapped base, the drain
// path flushes unsynced records, and /metrics scrapes as well-formed
// Prometheus text.

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"kwmds/internal/dyngraph"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/testsupport"
	"kwmds/internal/wal"
)

// lineGraph is a deterministic topology whose edges the tests know exactly.
func lineGraph(n int) *graph.Graph {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return graph.MustNew(n, edges)
}

var walTestOpts = wal.Options{SnapshotEveryEpochs: -1, SnapshotEveryBytes: -1}

// durableServer opens (or recovers) a WAL-backed preload named "g" in dir
// and serves it. initial seeds only the first call for a dir.
func durableServer(t *testing.T, dir string, initial *graph.Graph) (*Server, *httptest.Server) {
	t.Helper()
	rec, err := wal.Open(dir, initial, nil, walTestOpts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	srv := New(Config{Workers: 2, Preloads: map[string]Preload{
		"g": {Dyn: rec.Dyn, Log: rec.Log, Mapped: rec.Mapped, Tree: rec.Tree},
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postMutate(t *testing.T, ts *httptest.Server, name, body string) (*http.Response, graphio.MutateResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/graphs/"+name+"/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr graphio.MutateResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == 200 {
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatalf("mutate response: %v (%s)", err, data)
		}
	}
	return resp, mr
}

func solveBody(t *testing.T, ts *httptest.Server, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("solve answered %d: %s", resp.StatusCode, data)
	}
	var parsed map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	return parsed
}

// stripVolatile drops per-request fields (timings, cache markers) so two
// solve bodies can be compared bit-for-bit across a process restart.
func stripVolatile(m map[string]any) map[string]any {
	delete(m, "elapsed_ms")
	delete(m, "cached")
	return m
}

func TestDurableMutateAndRestart(t *testing.T) {
	dir := t.TempDir()
	rec, err := wal.Open(dir, lineGraph(40), nil, walTestOpts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	srv := New(Config{Workers: 2, Preloads: map[string]Preload{
		"g": {Dyn: rec.Dyn, Log: rec.Log, Mapped: rec.Mapped},
	}})
	ts := httptest.NewServer(srv.Handler())

	// Default sync: the 200 certifies durability.
	resp, mr := postMutate(t, ts, "g", `{"mutations":[{"op":"add_edge","u":0,"v":10}]}`)
	if resp.StatusCode != 200 || !mr.Durable || mr.Epoch != 1 {
		t.Fatalf("mutate: status %d durable %v epoch %d", resp.StatusCode, mr.Durable, mr.Epoch)
	}
	// Explicit opt-out: committed, buffered, not yet certified durable.
	resp, mr2 := postMutate(t, ts, "g", `{"sync":false,"mutations":[{"op":"set_weight","u":3,"w":4.5},{"op":"add_edge","u":5,"v":20}]}`)
	if resp.StatusCode != 200 || mr2.Durable || mr2.Epoch != 2 {
		t.Fatalf("sync=false mutate: status %d durable %v epoch %d", resp.StatusCode, mr2.Durable, mr2.Epoch)
	}
	before := stripVolatile(solveBody(t, ts, `{"graph_ref":"g","seed":3,"members":true,"use_graph_weights":true}`))

	// Restart: closing the server flushes the buffered epoch 2; the
	// recovered process must resume at exactly that state.
	ts.Close()
	srv.Close()

	rec2, err := wal.Open(dir, nil, nil, walTestOpts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rec2.Dyn.Epoch() != 2 {
		t.Fatalf("recovered epoch %d, want 2", rec2.Dyn.Epoch())
	}
	if rec2.Stats.ReplayedEpochs != 2 {
		t.Fatalf("replayed %d epochs, want 2", rec2.Stats.ReplayedEpochs)
	}
	if hex := rec2.Dyn.Costs(); hex[3] != 4.5 {
		t.Fatalf("recovered weight[3] = %v, want 4.5", hex[3])
	}
	srv2 := New(Config{Workers: 2, Preloads: map[string]Preload{
		"g": {Dyn: rec2.Dyn, Log: rec2.Log, Mapped: rec2.Mapped, Tree: rec2.Tree},
	}})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { ts2.Close(); srv2.Close() })

	// The registry view carries the recovered epoch and the digest the
	// last topology mutate reported.
	gresp, err := http.Get(ts2.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	var listing struct {
		Graphs []struct {
			Name   string `json:"name"`
			Digest string `json:"digest"`
			Epoch  int64  `json:"epoch"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil || len(listing.Graphs) != 1 {
		t.Fatalf("graphs listing: %v (%s)", err, body)
	}
	if got := listing.Graphs[0]; got.Epoch != 2 || got.Digest != mr2.Digest {
		t.Fatalf("recovered listing %+v, want epoch 2 digest %s", got, mr2.Digest)
	}

	after := stripVolatile(solveBody(t, ts2, `{"graph_ref":"g","seed":3,"members":true,"use_graph_weights":true}`))
	testsupport.RequireBitIdentical(t, after, before)

	// The recovered log is live: the next mutate lands as epoch 3.
	resp, mr3 := postMutate(t, ts2, "g", `{"mutations":[{"op":"remove_edge","u":0,"v":10}]}`)
	if resp.StatusCode != 200 || !mr3.Durable || mr3.Epoch != 3 {
		t.Fatalf("post-recovery mutate: status %d durable %v epoch %d", resp.StatusCode, mr3.Durable, mr3.Epoch)
	}
}

// TestRecoveredDigestTreeHandedOver: the server keeps the digest tree
// wal.Open built, on first boot and on recovery, and mutates through it.
// Every handed-over root must equal a fresh tree's, and the records a
// recovered server logs must carry the right pre/post digests: the next
// recovery replays them against its own tree and refuses a mismatch.
func TestRecoveredDigestTreeHandedOver(t *testing.T) {
	dir := t.TempDir()
	var last string
	for boot, body := range []string{
		`{"mutations":[{"op":"add_edge","u":0,"v":10}]}`,
		`{"mutations":[{"op":"add_edge","u":3,"v":17},{"op":"remove_edge","u":0,"v":10}]}`,
		`{"mutations":[{"op":"add_edge","u":5,"v":30}]}`,
	} {
		rec, err := wal.Open(dir, lineGraph(40), nil, walTestOpts)
		if err != nil {
			t.Fatalf("boot %d: wal.Open: %v", boot, err)
		}
		fresh := graphio.NewDigestTree(rec.Dyn.Graph()).Root()
		if rec.Tree == nil || rec.Tree.Root() != fresh || rec.Digest != fresh {
			t.Fatalf("boot %d: handed-over tree does not match a fresh digest of the recovered graph", boot)
		}
		if boot > 0 && hex.EncodeToString(fresh[:]) != last {
			t.Fatalf("boot %d: recovered digest %x, want the last mutate's %s", boot, fresh, last)
		}
		srv := New(Config{Workers: 2, Preloads: map[string]Preload{
			"g": {Dyn: rec.Dyn, Log: rec.Log, Mapped: rec.Mapped, Tree: rec.Tree},
		}})
		if p, _ := srv.lookup("g"); p.tree != rec.Tree {
			t.Fatalf("boot %d: the server built its own digest tree", boot)
		}
		ts := httptest.NewServer(srv.Handler())
		resp, mr := postMutate(t, ts, "g", body)
		ts.Close()
		srv.Close()
		if resp.StatusCode != http.StatusOK || !mr.Durable || mr.Epoch != int64(boot+1) {
			t.Fatalf("boot %d: mutate status %d durable %v epoch %d", boot, resp.StatusCode, mr.Durable, mr.Epoch)
		}
		last = mr.Digest
	}
	rec, err := wal.Open(dir, nil, nil, walTestOpts)
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer rec.Log.Close()
	defer rec.Mapped.Close()
	if got := rec.Tree.Root(); rec.Dyn.Epoch() != 3 || hex.EncodeToString(got[:]) != last {
		t.Fatalf("final recovery at epoch %d digest %x, want epoch 3 digest %s", rec.Dyn.Epoch(), got, last)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := durableServer(t, dir, lineGraph(30))

	solveBody(t, ts, `{"graph_ref":"g","seed":1}`)
	solveBody(t, ts, `{"graph_ref":"g","seed":1}`) // cache hit
	postMutate(t, ts, "g", `{"mutations":[{"op":"add_edge","u":0,"v":7}]}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text 0.0.4", ct)
	}

	// Parse every line: comments are # HELP/# TYPE; samples must be
	// `name{labels} value` with a float value.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$`)
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("malformed comment line %q", line)
		}
		if !sample.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		seen[line[:strings.IndexAny(line, "{ ")]] = true
	}
	for _, want := range []string{
		"kwmds_cache_entries", "kwmds_cache_hits_total", "kwmds_cache_misses_total", "kwmds_cache_hit_rate",
		"kwmds_pool_workers", "kwmds_pool_in_use", "kwmds_graphs",
		"kwmds_solve_latency_ms", "kwmds_solve_latency_ms_sum", "kwmds_solve_latency_ms_count",
		"kwmds_wal_appends_total", "kwmds_wal_appended_bytes_total", "kwmds_wal_fsyncs_total", "kwmds_wal_snapshot_failures_total",
		"kwmds_wal_fsync_latency_ms", "kwmds_wal_last_epoch", "kwmds_recovery_ms", "kwmds_recovery_replayed_epochs",
	} {
		if !seen[want] {
			t.Fatalf("family %s missing from /metrics (saw %v)", want, seen)
		}
	}
}

// TestSnapshotFailureIsExported: a snapshot that cannot be written leaves
// the mutate answering 200 durable (the log chain is intact), and the
// failure shows in /metrics. A directory squatting on epoch 2's temporary
// snapshot path makes the file creation fail even for root.
func TestSnapshotFailureIsExported(t *testing.T) {
	dir := t.TempDir()
	rec, err := wal.Open(dir, lineGraph(30), nil, wal.Options{SnapshotEveryEpochs: 2, SnapshotEveryBytes: -1})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("snap-%016x.kwcsr.tmp", 2)), 0o755); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Preloads: map[string]Preload{
		"g": {Dyn: rec.Dyn, Log: rec.Log, Mapped: rec.Mapped},
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	for i, body := range []string{
		`{"mutations":[{"op":"add_edge","u":0,"v":7}]}`,
		`{"mutations":[{"op":"add_edge","u":1,"v":9}]}`,
	} {
		resp, mr := postMutate(t, ts, "g", body)
		if resp.StatusCode != 200 || !mr.Durable || mr.Epoch != int64(i+1) {
			t.Fatalf("mutate %d: status %d durable %v epoch %d", i+1, resp.StatusCode, mr.Durable, mr.Epoch)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`kwmds_wal_snapshot_failures_total{graph="g"} 1`,
		`kwmds_wal_snapshots_total{graph="g"} 0`,
	} {
		if !strings.Contains(string(scrape), want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, scrape)
		}
	}
}

// TestMutateLogAppendFailure pins what a mutate answers when the graph's
// log refuses the append (here because it was closed under the server):
// 500 naming the epoch committed in memory; the log is then poisoned, so
// the next mutate answers 500 too; and solves of the graph still answer
// 200.
func TestMutateLogAppendFailure(t *testing.T) {
	rec, err := wal.Open(t.TempDir(), lineGraph(30), nil, walTestOpts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	srv := New(Config{Workers: 2, Preloads: map[string]Preload{
		"g": {Dyn: rec.Dyn, Log: rec.Log, Mapped: rec.Mapped, Tree: rec.Tree},
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}

	for i, body := range []string{
		`{"mutations":[{"op":"add_edge","u":0,"v":7}]}`,
		`{"mutations":[{"op":"add_edge","u":1,"v":9}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/graphs/g/mutate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("epoch %d committed in memory but could not be logged", i+1); resp.StatusCode != 500 || !strings.Contains(string(data), want) {
			t.Fatalf("mutate %d: status %d (%s), want 500 containing %q", i+1, resp.StatusCode, data, want)
		}
	}
	solveBody(t, ts, `{"graph_ref":"g","k":3,"seed":1}`)
}

// TestDeleteReleasesMappedGraph pins the mapped-preload lifecycle: a graph
// served off an mmapped .kwcsr, mutated (so the engine's tip is heap while
// the epoch-0 base still aliases the mapping), then DELETEd must drop the
// mapping's refcount to zero — the bug this guards against was the owner
// reference surviving the delete, pinning the file mapping for the process
// lifetime.
func TestDeleteReleasesMappedGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.kwcsr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteBinaryCSR(f, lineGraph(25), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := graphio.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyStructure(); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Preloads: map[string]Preload{
		"m": {Dyn: dyngraph.New(m.Graph()), Mapped: m},
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Solve + mutate first: the lifecycle bug only bites preloads that
	// were actually used and mutated before deletion.
	solveBody(t, ts, `{"graph_ref":"m","seed":1}`)
	if resp, _ := postMutate(t, ts, "m", `{"mutations":[{"op":"add_edge","u":0,"v":9}]}`); resp.StatusCode != 200 {
		t.Fatalf("mutate answered %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/m", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE answered %d", resp.StatusCode)
	}

	// The owner reference is gone and no solve holds a pin: the refcount
	// must have hit zero, which is observable as Retain refusing.
	if m.Retain() {
		t.Fatal("mapped graph still retainable after DELETE — owner reference leaked")
	}

	// The graph is gone from the registry too.
	sresp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"graph_ref":"m","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve after DELETE answered %d, want 404", sresp.StatusCode)
	}
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/m", nil)
	dresp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE answered %d, want 404", dresp.StatusCode)
	}
}

// TestGracefulDrainFlushesWAL: a mutate committed with sync=false right as
// the drain fires must be durable once Graceful has returned and the
// server is closed — the committed-but-unsynced record may not be lost to
// the shutdown ordering. Run under -race in CI: the interesting bug class
// is the in-flight mutate racing the stop signal.
// TestMutateRacingDelete races one mutate against one DELETE of the same
// durable graph, many times. The mutate looks the graph up before it takes
// the graph's lock, so the DELETE can land in between; it must then answer
// 404, never commit to the detached graph. One that wins the lock commits
// and logs before the DELETE closes the log, and must answer durable. The
// mutate's body is a large batch, which widens the window between its
// lookup and its lock, on even trials; odd trials send one mutation, so
// that the mutate also wins some races. Run under -race.
func TestMutateRacingDelete(t *testing.T) {
	var muts []string
	for v := 2; v < 202; v++ {
		muts = append(muts, fmt.Sprintf(`{"op":"add_edge","u":0,"v":%d}`, v))
	}
	bodies := [2]string{`{"mutations":[` + strings.Join(muts, ",") + `]}`, `{"mutations":[` + muts[0] + `]}`}
	var codes [2]int // 200s and 404s
	for trial := range 60 {
		body := bodies[trial%2]
		dir := t.TempDir()
		rec, err := wal.Open(dir, lineGraph(256), nil, walTestOpts)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Workers: 2, Preloads: map[string]Preload{
			"g": {Dyn: rec.Dyn, Log: rec.Log, Mapped: rec.Mapped, Tree: rec.Tree},
		}})
		h := srv.Handler()
		mutate, del := httptest.NewRecorder(), httptest.NewRecorder()
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			h.ServeHTTP(mutate, httptest.NewRequest(http.MethodPost, "/v1/graphs/g/mutate", strings.NewReader(body)))
		}()
		go func() {
			defer wg.Done()
			<-start
			h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/graphs/g", nil))
		}()
		close(start)
		wg.Wait()
		srv.Close()
		if del.Code != http.StatusOK {
			t.Fatalf("trial %d: DELETE answered %d: %s", trial, del.Code, del.Body)
		}
		switch mutate.Code {
		case http.StatusNotFound:
			codes[1]++
		case http.StatusOK:
			var mr graphio.MutateResponse
			if err := json.Unmarshal(mutate.Body.Bytes(), &mr); err != nil {
				t.Fatal(err)
			}
			if !mr.Durable || mr.Epoch != 1 {
				t.Fatalf("trial %d: mutate answered 200 with durable %v at epoch %d; want durable at epoch 1",
					trial, mr.Durable, mr.Epoch)
			}
			codes[0]++
		default:
			t.Fatalf("trial %d: mutate answered %d: %s", trial, mutate.Code, mutate.Body)
		}
	}
	t.Logf("%d mutates committed first, %d found the graph deleted", codes[0], codes[1])
}

func TestGracefulDrainFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	rec, err := wal.Open(dir, lineGraph(30), nil, walTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Preloads: map[string]Preload{
		"g": {Dyn: rec.Dyn, Log: rec.Log, Mapped: rec.Mapped},
	}})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	var once sync.Once
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		srv.Handler().ServeHTTP(w, r)
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- Graceful(ln, h, stop, 10*time.Second) }()

	type result struct {
		status  int
		durable bool
		err     error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/graphs/g/mutate", "application/json",
			strings.NewReader(`{"sync":false,"mutations":[{"op":"add_edge","u":0,"v":12}]}`))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var mr graphio.MutateResponse
		json.NewDecoder(resp.Body).Decode(&mr)
		resc <- result{status: resp.StatusCode, durable: mr.Durable}
	}()
	// Fire the drain while the mutate is in flight: Graceful must wait for
	// the handler, and the close after it must flush the record.
	<-entered
	close(stop)
	res := <-resc
	if res.err != nil || res.status != 200 {
		t.Fatalf("mutate during drain: %+v", res)
	}
	if res.durable {
		t.Fatal("sync=false mutate claimed durable")
	}
	if err := <-done; err != nil {
		t.Fatalf("Graceful returned %v", err)
	}
	srv.Close() // the serve cleanup path: flush WAL, close mapping

	rec2, err := wal.Open(dir, nil, nil, walTestOpts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec2.Log.Close()
	if rec2.Mapped != nil {
		defer rec2.Mapped.Close()
	}
	if rec2.Dyn.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1 — the drained-but-unsynced record was lost", rec2.Dyn.Epoch())
	}
}
