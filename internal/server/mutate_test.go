package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"kwmds"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/stats"
)

// mutateServer spawns a server with one small mutable preload plus direct
// access to the *Server for cache introspection.
func mutateServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	// A 6-cycle: small enough that expected solve outputs are obvious.
	g := graph.MustNew(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	srv := New(Config{Workers: 2, CacheEntries: 32, Graphs: map[string]*graph.Graph{"ring": g}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return resp, raw
}

// TestMutateMalformedBodies drives the mutate endpoint's whole error
// surface: envelope problems, graph-level validation failures, stale epoch
// pins, and mutations addressed at graphs the server does not hold (the
// inline-only case — inline graphs have no name, so there is nothing to
// mutate).
func TestMutateMalformedBodies(t *testing.T) {
	_, ts := mutateServer(t)
	cases := []struct {
		name   string
		target string
		body   string
		status int
		want   string
	}{
		{"empty body", "ring", ``, 400, "mutate request"},
		{"not json", "ring", `hi`, 400, "mutate request"},
		{"no mutations", "ring", `{}`, 400, "empty mutation batch"},
		{"empty batch", "ring", `{"mutations":[]}`, 400, "empty mutation batch"},
		{"unknown field", "ring", `{"mutations":[{"op":"add_edge","u":0,"v":2}],"zap":1}`, 400, "zap"},
		{"missing op", "ring", `{"mutations":[{"u":0,"v":2}]}`, 400, "missing op"},
		{"unknown op", "ring", `{"mutations":[{"op":"explode"}]}`, 400, "unknown op"},
		{"add_edge with w", "ring", `{"mutations":[{"op":"add_edge","u":0,"v":2,"w":3}]}`, 400, `takes no "w"`},
		{"add_vertex with fields", "ring", `{"mutations":[{"op":"add_vertex","u":1}]}`, 400, "takes no fields"},
		{"set_weight with v", "ring", `{"mutations":[{"op":"set_weight","u":1,"v":2,"w":2}]}`, 400, `not "v"`},
		{"unknown vertex", "ring", `{"mutations":[{"op":"add_edge","u":0,"v":17}]}`, 400, "out of range"},
		{"self-loop", "ring", `{"mutations":[{"op":"add_edge","u":3,"v":3}]}`, 400, "self-loop"},
		{"duplicate edge", "ring", `{"mutations":[{"op":"add_edge","u":0,"v":1}]}`, 400, "duplicate edge"},
		{"duplicate within batch", "ring", `{"mutations":[{"op":"add_edge","u":0,"v":2},{"op":"add_edge","u":2,"v":0}]}`, 400, "duplicate edge"},
		{"remove absent", "ring", `{"mutations":[{"op":"remove_edge","u":0,"v":3}]}`, 400, "no edge"},
		{"weight below one", "ring", `{"mutations":[{"op":"set_weight","u":1,"w":0.25}]}`, 400, "outside [1, ∞)"},
		{"stale epoch", "ring", `{"epoch":7,"mutations":[{"op":"add_edge","u":0,"v":2}]}`, 409, "stale epoch"},
		{"unpreloaded graph", "nope", `{"mutations":[{"op":"add_edge","u":0,"v":2}]}`, 404, "unknown graph"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/graphs/"+tc.target+"/mutate", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			var er graphio.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body is not an ErrorResponse: %v", err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Fatalf("error %q does not contain %q", er.Error, tc.want)
			}
		})
	}
	// A failed batch must not have advanced the epoch or the topology.
	resp, body := postJSON(t, ts.URL+"/v1/graphs/ring/mutate", `{"epoch":0,"mutations":[{"op":"remove_edge","u":0,"v":1}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("epoch-0 pin after failed batches: status %d (body %s)", resp.StatusCode, body)
	}
}

// TestMutateVertexCap pins the growth bound: mutations accumulate across
// requests, so the server enforces the inline-path vertex limit on the
// post-batch size instead of letting a preload grow without bound.
func TestMutateVertexCap(t *testing.T) {
	g := graph.MustNew(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	srv := New(Config{Workers: 1, MaxInlineVertices: 8, Graphs: map[string]*graph.Graph{"ring": g}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/v1/graphs/ring/mutate",
		`{"mutations":[{"op":"add_vertex"},{"op":"add_vertex"},{"op":"add_vertex"}]}`)
	if resp.StatusCode != 400 || !strings.Contains(string(body), "exceeding the server limit") {
		t.Fatalf("over-cap batch: %d %s", resp.StatusCode, body)
	}
	// At the cap is fine; the next growth attempt is not.
	resp, body = postJSON(t, ts.URL+"/v1/graphs/ring/mutate",
		`{"mutations":[{"op":"add_vertex"},{"op":"add_vertex"}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("at-cap batch: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/graphs/ring/mutate", `{"mutations":[{"op":"add_vertex"}]}`)
	if resp.StatusCode != 400 {
		t.Fatalf("post-cap growth: %d %s", resp.StatusCode, body)
	}
}

func TestMutateLifecycle(t *testing.T) {
	_, ts := mutateServer(t)
	// Epoch 1: rewire the ring into a wheel-ish graph with a new hub.
	resp, body := postJSON(t, ts.URL+"/v1/graphs/ring/mutate",
		`{"epoch":0,"mutations":[{"op":"add_vertex"},{"op":"add_edge","u":6,"v":0},{"op":"add_edge","u":6,"v":2},{"op":"add_edge","u":6,"v":4},{"op":"remove_edge","u":0,"v":1}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	var mr graphio.MutateResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 1 || mr.N != 7 || mr.M != 8 || mr.Name != "ring" {
		t.Fatalf("mutate response %+v", mr)
	}
	if mr.Touched != 5 { // 0,1,2,4,6
		t.Fatalf("touched = %d, want 5", mr.Touched)
	}

	// The graphs listing reflects the new epoch and digest.
	gresp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	var listing struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Graphs) != 1 || listing.Graphs[0].Epoch != 1 || listing.Graphs[0].Digest != mr.Digest ||
		listing.Graphs[0].N != 7 {
		t.Fatalf("listing %+v, want epoch 1 digest %s", listing.Graphs[0], mr.Digest)
	}

	// Solves: epoch-pinned current epoch succeeds and echoes it; a stale
	// pin is rejected with 409; an unpinned solve works.
	resp, body = postJSON(t, ts.URL+"/v1/solve", `{"graph_ref":"ring","epoch":1,"seed":3}`)
	if resp.StatusCode != 200 {
		t.Fatalf("pinned solve: %d %s", resp.StatusCode, body)
	}
	var sr graphio.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Epoch != 1 || sr.N != 7 || sr.Digest != mr.Digest {
		t.Fatalf("pinned solve response: epoch %d n %d digest %s", sr.Epoch, sr.N, sr.Digest)
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", `{"graph_ref":"ring","epoch":0,"seed":3}`)
	if resp.StatusCode != 409 || !strings.Contains(string(body), "stale epoch") {
		t.Fatalf("stale solve: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", `{"graph":{"n":2,"edges":[[0,1]]},"epoch":1}`)
	if resp.StatusCode != 400 || !strings.Contains(string(body), "requires") {
		t.Fatalf("inline epoch solve: %d %s", resp.StatusCode, body)
	}

	// Weights: absent until a set_weight mutation lands, then usable.
	resp, body = postJSON(t, ts.URL+"/v1/solve", `{"graph_ref":"ring","use_graph_weights":true}`)
	if resp.StatusCode != 400 || !strings.Contains(string(body), "has no weights") {
		t.Fatalf("weightless use_graph_weights: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/graphs/ring/mutate", `{"mutations":[{"op":"set_weight","u":6,"w":5}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("set_weight: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", `{"graph_ref":"ring","use_graph_weights":true,"seed":3}`)
	if resp.StatusCode != 200 {
		t.Fatalf("weighted solve: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Epoch != 2 || sr.WeightedCost < float64(sr.Size) {
		t.Fatalf("weighted solve: epoch %d cost %v size %d", sr.Epoch, sr.WeightedCost, sr.Size)
	}
}

// TestMutateInvalidatesCache proves the LRU actually drops entries whose
// digest a mutation invalidated — including the revert case, where the
// digest returns to a previously cached value but the old entry must
// already be gone.
func TestMutateInvalidatesCache(t *testing.T) {
	srv, ts := mutateServer(t)
	solve := func(wantCached bool) graphio.SolveResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/solve", `{"graph_ref":"ring","seed":11}`)
		if resp.StatusCode != 200 {
			t.Fatalf("solve: %d %s", resp.StatusCode, body)
		}
		var sr graphio.SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cached != wantCached {
			t.Fatalf("cached = %v, want %v", sr.Cached, wantCached)
		}
		return sr
	}
	first := solve(false)
	solve(true)
	if entries, _, _ := srv.Stats(); entries != 1 {
		t.Fatalf("cache entries = %d, want 1", entries)
	}

	mutate := func(body string) graphio.MutateResponse {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/graphs/ring/mutate", body)
		if resp.StatusCode != 200 {
			t.Fatalf("mutate: %d %s", resp.StatusCode, raw)
		}
		var mr graphio.MutateResponse
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatal(err)
		}
		return mr
	}
	mutate(`{"mutations":[{"op":"add_edge","u":0,"v":3}]}`)
	if entries, _, _ := srv.Stats(); entries != 0 {
		t.Fatalf("cache entries after mutation = %d, want 0 (old digest dropped)", entries)
	}
	second := solve(false)
	if second.Digest == first.Digest {
		t.Fatal("digest unchanged by mutation")
	}
	solve(true)

	// Revert: the digest returns to the original value, but the original
	// cache entry was dropped at the first mutation, so this is a miss —
	// and the response carries the new epoch despite the old digest.
	mr := mutate(`{"mutations":[{"op":"remove_edge","u":0,"v":3}]}`)
	if mr.Digest != first.Digest {
		t.Fatalf("revert digest %s, want original %s", mr.Digest, first.Digest)
	}
	if entries, _, _ := srv.Stats(); entries != 0 {
		t.Fatalf("cache entries after revert = %d, want 0", entries)
	}
	reverted := solve(false)
	if reverted.Digest != first.Digest || reverted.Epoch != 2 {
		t.Fatalf("reverted solve: digest %s epoch %d, want %s epoch 2", reverted.Digest, reverted.Epoch, first.Digest)
	}
	if reverted.Size != first.Size {
		t.Fatalf("reverted solve size %d, want %d (same topology, same seed)", reverted.Size, first.Size)
	}

	// A weight-only batch changes no topology: the digest stays, the epoch
	// advances, and the cache keeps its entries (they are keyed on digest
	// plus a weights hash, so they remain exactly right).
	solve(true)
	mr = mutate(`{"mutations":[{"op":"set_weight","u":2,"w":4}]}`)
	if mr.Digest != first.Digest || mr.Epoch != 3 || mr.Touched != 0 {
		t.Fatalf("weight-only mutate: %+v, want original digest, epoch 3, 0 touched", mr)
	}
	if entries, _, _ := srv.Stats(); entries != 1 {
		t.Fatalf("cache entries after weight-only mutate = %d, want 1 (nothing invalidated)", entries)
	}
	solve(true)
}

// TestConcurrentMutateAndSolve checks the served history of one mutable
// graph against an oracle. Two mutators post edge toggles (disjoint pair
// pools, so every batch is valid whatever the interleaving) while three
// solver goroutines post members:true solves at random seeds; -race in CI
// makes it the holder-locking probe too. The acknowledged batches, ordered
// by the epochs their replies report, define the model graph of every
// epoch. Each 200 solve must then equal, digest and members included,
// kwmds.DominatingSet of graph.New over the model at the epoch the solve
// reports. The graph has five 64-vertex blocks and a mutate touches one
// to four, so the history holds paged commits and compactions both.
func TestConcurrentMutateAndSolve(t *testing.T) {
	const n, mutates, solves = 320, 24, 16
	g, err := gen.UnitDisk(n, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, CacheEntries: 32, Graphs: map[string]*graph.Graph{"g": g}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	post := func(path, body string, v any) (int, error) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil
		}
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
	}
	type batch struct {
		epoch   int64
		digest  string
		toggles [][2]int
	}
	var mu sync.Mutex
	var acked []batch
	type solved struct {
		seed int64
		graphio.SolveResponse
	}
	var served []solved
	var paged, compacted int
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			rng := stats.NewRand(int64(m) + 1)
			on := map[[2]int]bool{} // this mutator's pairs that are edges now
			for _, e := range g.Edges() {
				on[e] = true
			}
			for i := 0; i < mutates; i++ {
				var b batch
				var muts []string
				for k := 1 + rng.IntN(2); k > 0; k-- {
					// Mutator m owns the pairs (u, v) with u+v of parity m.
					u := rng.IntN(n)
					v := rng.IntN(n/2)*2 + (u+m)%2
					e := [2]int{min(u, v), max(u, v)}
					if u == v || slices.Contains(b.toggles, e) {
						continue
					}
					op := "add_edge"
					if on[e] {
						op = "remove_edge"
					}
					on[e] = !on[e]
					b.toggles = append(b.toggles, e)
					muts = append(muts, fmt.Sprintf(`{"op":%q,"u":%d,"v":%d}`, op, e[0], e[1]))
				}
				if len(muts) == 0 {
					continue
				}
				var mr graphio.MutateResponse
				status, err := post("/v1/graphs/g/mutate", `{"mutations":[`+strings.Join(muts, ",")+`]}`, &mr)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("mutator %d: mutate answered %d: %v", m, status, err)
					return
				}
				b.epoch, b.digest = mr.Epoch, mr.Digest
				mu.Lock()
				acked = append(acked, b)
				cur, _, _, _ := srv.graphs["g"].snapshot()
				if cur.PagedBlocks() > 0 {
					paged++
				} else {
					compacted++
				}
				mu.Unlock()
			}
		}(m)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRand(int64(w) + 100)
			for i := 0; i < solves; i++ {
				sr := solved{seed: int64(rng.IntN(1000))}
				body := fmt.Sprintf(`{"graph_ref":"g","k":3,"seed":%d,"members":true}`, sr.seed)
				status, err := post("/v1/solve", body, &sr.SolveResponse)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("solver %d: solve answered %d: %v", w, status, err)
					return
				}
				mu.Lock()
				served = append(served, sr)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The model: epoch e's graph is the base with the batches of epochs
	// 1..e applied, which must be every epoch from 1 on, once each.
	slices.SortFunc(acked, func(a, b batch) int { return int(a.epoch - b.epoch) })
	edges := map[[2]int]bool{}
	for _, e := range g.Edges() {
		edges[e] = true
	}
	model := []*graph.Graph{g}
	for i, b := range acked {
		if b.epoch != int64(i+1) {
			t.Fatalf("the acknowledged epochs are not 1..%d: %d at position %d", len(acked), b.epoch, i)
		}
		for _, e := range b.toggles {
			edges[e] = !edges[e]
		}
		var list [][2]int
		for e, on := range edges {
			if on {
				list = append(list, e)
			}
		}
		mg, err := graph.New(n, list)
		if err != nil {
			t.Fatal(err)
		}
		if d := graphio.Digest(mg); d != b.digest {
			t.Fatalf("epoch %d: mutate reported digest %.12s, the model's is %.12s", b.epoch, b.digest, d)
		}
		model = append(model, mg)
	}
	for _, sr := range served {
		mg := model[sr.Epoch]
		if d := graphio.Digest(mg); sr.Digest != d || sr.N != n || sr.M != mg.M() {
			t.Fatalf("epoch %d: solve reported digest %.12s n %d m %d, the model has %.12s n %d m %d",
				sr.Epoch, sr.Digest, sr.N, sr.M, d, n, mg.M())
		}
		want, err := kwmds.DominatingSet(mg, kwmds.Options{K: 3, Seed: sr.seed})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Size != want.Size || !slices.Equal(sr.Members, graph.Members(want.InDS)) {
			t.Fatalf("epoch %d seed %d: served size %d, oracle size %d (members differ: %v)",
				sr.Epoch, sr.seed, sr.Size, want.Size, !slices.Equal(sr.Members, graph.Members(want.InDS)))
		}
	}
	t.Logf("%d batches (%d left the graph paged, %d flat), %d solves checked", len(acked), paged, compacted, len(served))
	if paged == 0 || compacted == 0 {
		t.Fatalf("%d batches left the graph paged and %d flat; the history must hold both", paged, compacted)
	}
}
