package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// TestConcurrentRequests hammers one server from many goroutines with a mix
// of pipeline configurations, cache hits, inline graphs and malformed
// bodies. Run under -race it proves the PR 1 engine and the serve layer are
// re-entrant: multiple simulated pipelines share a process with no shared
// mutable state. It also checks determinism under concurrency — equal
// (topology, options) must give equal sizes no matter how runs interleave.
func TestConcurrentRequests(t *testing.T) {
	g1, err := gen.UnitDisk(300, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.GNP(300, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 4, CacheEntries: 16, Graphs: map[string]*graph.Graph{
		"udg": g1, "gnp": g2,
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := []string{
		`{"graph_ref":"udg","seed":1}`,
		`{"graph_ref":"udg","seed":2,"algo":"kw2","k":3}`,
		`{"graph_ref":"udg","algo":"frac","k":2}`,
		`{"graph_ref":"gnp","seed":1,"algo":"kwcds"}`,
		`{"graph_ref":"gnp","seed":3,"variant":"ln-lnln"}`,
		`{"graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4]]},"seed":1}`,
		`{"graph_ref":"udg","k":-1}`,       // 400
		`{"graph_ref":"missing","seed":1}`, // 404
		`not even json`,                    // 400
	}

	const goroutines = 16
	const perG = 12
	sizes := make([]map[string]int, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes[w] = make(map[string]int)
			for i := 0; i < perG; i++ {
				body := bodies[(w+i)%len(bodies)]
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var sr graphio.SolveResponse
				dec := json.NewDecoder(resp.Body)
				decErr := dec.Decode(&sr)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						t.Errorf("bad 200 body: %v", decErr)
						return
					}
					sizes[w][fmt.Sprintf("%s|%d", body, sr.Size)] = sr.Size
				case http.StatusBadRequest, http.StatusNotFound:
					// expected for the malformed bodies
				default:
					t.Errorf("unexpected status %d for %q", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Determinism across interleavings: for each request body, every
	// goroutine must have observed a single size.
	seen := make(map[string]map[int]bool)
	for _, m := range sizes {
		for key, size := range m {
			body := key[:strings.LastIndex(key, "|")]
			if seen[body] == nil {
				seen[body] = make(map[int]bool)
			}
			seen[body][size] = true
		}
	}
	for body, set := range seen {
		if len(set) != 1 {
			t.Errorf("body %q produced %d distinct sizes under concurrency: %v", body, len(set), set)
		}
	}
}

// TestSingleFlight checks that concurrent misses on one key run the solver
// exactly once and share its result.
func TestSingleFlight(t *testing.T) {
	c := newResultCache(4)
	var computes sync.WaitGroup
	computes.Add(1)
	var calls int32
	var mu sync.Mutex
	compute := func(<-chan struct{}) (*solveResult, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		computes.Wait() // hold every concurrent caller on this one compute
		return &solveResult{SolveResponse: graphio.SolveResponse{Size: 42}}, nil
	}
	const n = 8
	results := make([]*solveResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.getOrCompute(context.Background(), "k", compute)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let followers pile onto the inflight call, then release it.
	computes.Done()
	wg.Wait()
	if calls != 1 {
		t.Errorf("compute ran %d times for one key, want 1", calls)
	}
	for i, v := range results {
		if v == nil || v.Size != 42 {
			t.Errorf("caller %d got %+v", i, v)
		}
	}
}
