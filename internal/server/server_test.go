package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kwmds"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/stats"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	g, err := gen.UnitDisk(200, 0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 4, CacheEntries: 32, Graphs: map[string]*graph.Graph{"udg-200": g}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postSolve(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	dec := json.NewDecoder(resp.Body)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	buf.Write(raw)
	return resp, []byte(buf.String())
}

// TestSolveMalformedBodies checks that every malformed request is answered
// with a 4xx JSON error — never a panic, hang, or 500.
func TestSolveMalformedBodies(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name   string
		body   string
		status int
		want   string // substring of the error field
	}{
		{"empty", ``, 400, "solve request"},
		{"not json", `hello`, 400, "solve request"},
		{"no graph", `{"algo":"kw"}`, 400, "exactly one of"},
		{"unknown algo", `{"graph_ref":"udg-200","algo":"magic"}`, 400, "unknown algo"},
		{"unknown variant", `{"graph_ref":"udg-200","variant":"exp"}`, 400, "unknown variant"},
		{"unknown field", `{"graph_ref":"udg-200","frobnicate":true}`, 400, "frobnicate"},
		{"unknown ref", `{"graph_ref":"nope"}`, 404, "unknown graph_ref"},
		{"negative k", `{"graph_ref":"udg-200","k":-4}`, 400, "K = -4"},
		{"huge k", `{"graph_ref":"udg-200","k":1000}`, 400, "outside [0, 64]"},
		{"short weights", `{"graph_ref":"udg-200","weights":[1,2,3]}`, 400, "3 weights for 200 vertices"},
		{"sub-unit weight", `{"graph_ref":"udg-200","weights":[0.2,1,1]}`, 400, "weight"},
		{"self-loop edge", `{"graph":{"n":3,"edges":[[1,1]]}}`, 400, "self-loop"},
		{"edge out of range", `{"graph":{"n":2,"edges":[[0,5]]}}`, 400, "out of range"},
		{"negative n", `{"graph":{"n":-1,"edges":[]}}`, 400, "negative vertex count"},
		{"huge inline n", `{"graph":{"n":2000000000,"edges":[]}}`, 400, "exceeds the server limit"},
		{"kw2 with weights", `{"graph_ref":"udg-200","algo":"kw2","weights":[1]}`, 400, "not supported with algo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSolve(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			var er graphio.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body is not an ErrorResponse: %v", err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Errorf("error %q does not contain %q", er.Error, tc.want)
			}
		})
	}
}

func TestSolvePipelines(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name    string
		body    string
		refused string // when set, the request is a 400 whose error says this
	}{
		{"kw ref", `{"graph_ref":"udg-200","seed":7}`, ""},
		{"kw2", `{"graph_ref":"udg-200","algo":"kw2","k":3,"seed":7}`, ""},
		{"kwcds", `{"graph_ref":"udg-200","algo":"kwcds","seed":7}`, ""},
		{"frac", `{"graph_ref":"udg-200","algo":"frac","k":2}`, ""},
		// "sequential" was the pre-engine spelling of "engine":"fast"; it is
		// an unknown field now.
		{"sequential", `{"graph_ref":"udg-200","seed":7,"sequential":true}`, `unknown field "sequential"`},
		{"ln-lnln", `{"graph_ref":"udg-200","seed":7,"variant":"ln-lnln"}`, ""},
		{"inline graph", `{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"seed":1,"members":true}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSolve(t, ts, tc.body)
			if tc.refused != "" {
				var er graphio.ErrorResponse
				if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || !strings.Contains(er.Error, tc.refused) {
					t.Fatalf("status = %d, body %s; want 400 naming %s", resp.StatusCode, body, tc.refused)
				}
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			var sr graphio.SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Digest == "" || sr.K < 1 {
				t.Errorf("incomplete response: %+v", sr)
			}
			if sr.Algo != "frac" && sr.Size < 1 {
				t.Errorf("size = %d, want ≥ 1", sr.Size)
			}
		})
	}
}

func TestSolveWeighted(t *testing.T) {
	ts := testServer(t)
	w := make([]float64, 200)
	for i := range w {
		w[i] = 1 + float64(i%5)
	}
	req, _ := json.Marshal(graphio.SolveRequest{GraphRef: "udg-200", K: 3, Seed: 2, Weights: w})
	resp, body := postSolve(t, ts, string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr graphio.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.WeightedCost <= 0 {
		t.Errorf("weighted cost = %v, want > 0", sr.WeightedCost)
	}
}

// TestSolveCache checks that a repeated (topology, options) query is
// answered from the LRU — including when the same topology arrives inline
// rather than by reference — and that the members flag does not split the
// cache key.
func TestSolveCache(t *testing.T) {
	g, err := gen.UnitDisk(150, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, CacheEntries: 8, Graphs: map[string]*graph.Graph{"g": g}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(body string) graphio.SolveResponse {
		t.Helper()
		resp, raw := postSolve(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
		}
		var sr graphio.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	first := get(`{"graph_ref":"g","seed":5}`)
	if first.Cached {
		t.Error("first query reported cached")
	}
	second := get(`{"graph_ref":"g","seed":5}`)
	if !second.Cached {
		t.Error("repeat query not cached")
	}
	if second.Size != first.Size {
		t.Errorf("cached size %d != computed size %d", second.Size, first.Size)
	}
	// members=true must reuse the same entry, now with the ids attached.
	withMembers := get(`{"graph_ref":"g","seed":5,"members":true}`)
	if !withMembers.Cached || len(withMembers.Members) != first.Size {
		t.Errorf("members request: cached=%v members=%d, want cached with %d ids",
			withMembers.Cached, len(withMembers.Members), first.Size)
	}
	// A different seed is a different key.
	if other := get(`{"graph_ref":"g","seed":6}`); other.Cached {
		t.Error("different seed hit the cache")
	}
	// The same topology posted inline shares the digest and thus the entry.
	rawGraph, _ := json.Marshal(graphio.JSONGraph{N: g.N(), Edges: g.Edges()})
	inlineReq, _ := json.Marshal(graphio.SolveRequest{Graph: rawGraph, Seed: 5})
	if inline := get(string(inlineReq)); !inline.Cached {
		t.Error("identical inline topology missed the digest-keyed cache")
	}
}

// TestMembersOnlyOnRequest: a cold solve caches its set as packed bits and
// builds the member list only for a request that asks for one. For each
// engine with members, a members:false miss carries none; the same request
// with members:true is a cache hit listing exactly kwmds.SetMembers of an
// in-process solve; a members:true miss on a fresh server lists the same;
// and no cache entry ever holds a list.
func TestMembersOnlyOnRequest(t *testing.T) {
	g, err := gen.UnitDisk(300, 0.1, 4) // 300 vertices: the last word is partial
	if err != nil {
		t.Fatal(err)
	}
	newServer := func() (*Server, *httptest.Server) {
		srv := New(Config{Workers: 2, CacheEntries: 8, Graphs: map[string]*graph.Graph{"g": g}})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	solve := func(ts *httptest.Server, body string) graphio.SolveResponse {
		t.Helper()
		resp, raw := postSolve(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", body, resp.StatusCode, raw)
		}
		var sr graphio.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	noListCached := func(srv *Server) {
		t.Helper()
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		for el := srv.cache.order.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*cacheEntry); e.val.Members != nil {
				t.Fatalf("cache entry %q holds a member list of %d ids", e.key, len(e.val.Members))
			}
		}
	}
	for _, algo := range []string{"kw", "kw2", "kwcds"} {
		t.Run(algo, func(t *testing.T) {
			opts := kwmds.Options{K: 3, Seed: 11, Sequential: true, KnownDelta: algo == "kw2"}
			solveInProc := kwmds.DominatingSet
			if algo == "kwcds" {
				solveInProc = kwmds.ConnectedDominatingSet
			}
			want, err := solveInProc(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantList := kwmds.SetMembers(want.InDS)
			body := fmt.Sprintf(`{"graph_ref":"g","algo":%q,"k":3,"seed":11`, algo)

			srv, ts := newServer()
			miss := solve(ts, body+`}`)
			if miss.Cached || miss.Members != nil || miss.Size != want.Size {
				t.Fatalf("members:false miss: cached %v, %d members, size %d (want a miss with none, size %d)",
					miss.Cached, len(miss.Members), miss.Size, want.Size)
			}
			hit := solve(ts, body+`,"members":true}`)
			if !hit.Cached || !slices.Equal(hit.Members, wantList) {
				t.Fatalf("members:true hit: cached %v, members %v, want a hit listing %v", hit.Cached, hit.Members, wantList)
			}
			noListCached(srv)

			srv2, ts2 := newServer()
			miss2 := solve(ts2, body+`,"members":true}`)
			if miss2.Cached || !slices.Equal(miss2.Members, wantList) {
				t.Fatalf("members:true miss: cached %v, members %v, want a miss listing %v", miss2.Cached, miss2.Members, wantList)
			}
			noListCached(srv2)
		})
	}
}

// TestColdSolveAllocatesOnlyTheAnswer solves serve-cold's graph (udg-10k,
// radius 0.02) with distinct seeds and no member list, so every solve
// misses the cache and hits the solver's LP memo: the path whose only
// per-vertex output is the set, n/64 words. Heap bytes per solve must stay
// below n, one byte per vertex; a []bool set or a copy of x, at n and 8n
// bytes, cannot fit.
func TestColdSolveAllocatesOnlyTheAnswer(t *testing.T) {
	g, err := gen.UnitDisk(10000, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Graphs: map[string]*graph.Graph{"udg-10k": g}})
	solve := func(seed int64) {
		t.Helper()
		req := graphio.SolveRequest{GraphRef: "udg-10k", Algo: "kw", Engine: "fast", K: 3, Seed: seed}
		resp, err := srv.solve(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached || resp.Size == 0 || resp.Members != nil {
			t.Fatalf("seed %d: cached %v, size %d, %d members; want a miss with a set and no list",
				seed, resp.Cached, resp.Size, len(resp.Members))
		}
	}
	solve(1) // the first solve runs the LP stage and sizes the pooled solver
	const solves = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(2); seed < 2+solves; seed++ {
		solve(seed)
	}
	runtime.ReadMemStats(&after)
	perSolve := (after.TotalAlloc - before.TotalAlloc) / solves
	t.Logf("%d bytes per cold solve", perSolve)
	if perSolve >= uint64(g.N()) {
		t.Fatalf("a cold solve allocates %d bytes, want fewer than n = %d", perSolve, g.N())
	}
}

// TestChurnOpAllocatesAFractionOfTheCSR pins what a served churn op
// allocates: serve-churn's mutate on its own graph (udg-10k, four toggles
// among 32 fixed vertex pairs), then a cache-missing solve of the new
// epoch. The commit copies the page table and writes pages for the blocks
// it touched, and the solve replays over the paged snapshot, so an op must
// allocate under a quarter of the flat CSR's bytes: a commit that copies
// the CSR, or a solve that flattens the snapshot, allocates more on its
// own.
func TestChurnOpAllocatesAFractionOfTheCSR(t *testing.T) {
	g, err := gen.UnitDisk(10000, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Graphs: map[string]*graph.Graph{"udg-10k": g}})
	h := srv.Handler()
	rng := stats.NewRand(7)
	var pairs [][2]int
	for len(pairs) < 32 {
		u, v := rng.IntN(g.N()), rng.IntN(g.N())
		if e := [2]int{min(u, v), max(u, v)}; u != v && !slices.Contains(pairs, e) {
			pairs = append(pairs, e)
		}
	}
	op := func(i int) {
		t.Helper()
		cur, _, _, _ := srv.graphs["udg-10k"].snapshot()
		var muts []string
		for _, j := range rng.Perm(len(pairs))[:4] {
			e, kind := pairs[j], "add_edge"
			if cur.HasEdge(e[0], e[1]) {
				kind = "remove_edge"
			}
			muts = append(muts, fmt.Sprintf(`{"op":%q,"u":%d,"v":%d}`, kind, e[0], e[1]))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/udg-10k/mutate",
			strings.NewReader(`{"mutations":[`+strings.Join(muts, ",")+`]}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("op %d: mutate answered %d: %s", i, rec.Code, rec.Body)
		}
		req := graphio.SolveRequest{GraphRef: "udg-10k", Algo: "kw", Engine: "fast", K: 3, Seed: int64(i)}
		resp, err := srv.solve(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached || resp.Size == 0 {
			t.Fatalf("op %d: cached %v, size %d; want a miss with a set", i, resp.Cached, resp.Size)
		}
	}
	for i := range 8 { // the first solve runs the LP stage; the rest replay
		op(i)
	}
	const ops = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 8; i < 8+ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	flat := uint64(4 * (g.N() + 1 + 2*g.M()))
	t.Logf("%d bytes per churn op; the flat CSR is %d", perOp, flat)
	if perOp >= flat/4 {
		t.Fatalf("a churn op allocates %d bytes, want under a quarter of the flat CSR's %d", perOp, flat)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	mk := func(k string) (*solveResult, bool) {
		v, hit, err := c.getOrCompute(context.Background(), k, func(<-chan struct{}) (*solveResult, error) {
			return &solveResult{SolveResponse: graphio.SolveResponse{Digest: k}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	mk("a")
	mk("b")
	if _, hit := mk("a"); !hit {
		t.Error("a evicted too early")
	}
	mk("c") // cache is {c, a}; b was least recently used
	if _, hit := mk("b"); hit {
		t.Error("b not evicted")
	} // recomputing b evicts a (LRU after c's insert)
	if _, hit := mk("c"); !hit {
		t.Error("c evicted although recently used")
	}
}

func TestGraphsAndHealth(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gl struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gl); err != nil {
		t.Fatal(err)
	}
	if len(gl.Graphs) != 1 || gl.Graphs[0].Name != "udg-200" || gl.Graphs[0].N != 200 {
		t.Errorf("graphs = %+v", gl.Graphs)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", hresp.StatusCode)
	}

	// Wrong methods are rejected.
	if mresp, err := http.Get(ts.URL + "/v1/solve"); err != nil {
		t.Fatal(err)
	} else {
		mresp.Body.Close()
		if mresp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/solve status = %d, want 405", mresp.StatusCode)
		}
	}
}

func TestBodyLimit(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	srv := New(Config{MaxBodyBytes: 64, Graphs: map[string]*graph.Graph{"g": g}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	big := `{"graph":{"n":3,"edges":[[0,1],[1,2],[0,2]]},"seed":1,` + strings.Repeat(" ", 200) + `"k":1}`
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}
