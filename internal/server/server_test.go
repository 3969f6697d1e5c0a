package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
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

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	mk := func(k string) (*graphio.SolveResponse, bool) {
		v, hit, err := c.getOrCompute(context.Background(), k, func(<-chan struct{}) (*graphio.SolveResponse, error) {
			return &graphio.SolveResponse{Digest: k}, nil
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
