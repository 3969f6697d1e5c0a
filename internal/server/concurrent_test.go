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
	"time"

	"kwmds"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// TestConcurrentSolvesMatchInProcess: concurrent distinct-seed cold solves
// of one digest, spanning two LP configurations so they interleave on the
// pooled solvers' LP memos, must each return exactly what in-process
// kwmds.DominatingSet returns for the same options: size, LP objective,
// joined counts and members.
func TestConcurrentSolvesMatchInProcess(t *testing.T) {
	g, err := gen.UnitDisk(300, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 4, CacheEntries: 128, Graphs: map[string]*graph.Graph{"g": g}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}

	// shape mixes algorithms and k, so the requests span LP configurations.
	shape := func(seed int) (algo string, k int) {
		if seed%3 == 0 {
			return "kw2", 4
		}
		return "kw", 0
	}
	const reqs = 24
	got := make([]*graphio.SolveResponse, reqs)
	var wg sync.WaitGroup
	for seed := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			algo, k := shape(seed)
			body := fmt.Sprintf(`{"graph_ref":"g","algo":%q,"k":%d,"seed":%d,"members":true}`, algo, k, seed)
			resp, err := client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return
			}
			defer resp.Body.Close()
			var sr graphio.SolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d, decode error %v", seed, resp.StatusCode, err)
				return
			}
			got[seed] = &sr
		}()
	}
	wg.Wait()

	for seed, sr := range got {
		if sr == nil {
			continue // already reported
		}
		algo, k := shape(seed)
		want, err := kwmds.DominatingSet(g, kwmds.Options{K: k, Seed: int64(seed), Sequential: true, KnownDelta: algo == "kw2"})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Size != want.Size || sr.K != want.K || sr.LPObjective != want.LPObjective ||
			sr.JoinedRandom != want.JoinedRandom || sr.JoinedFixup != want.JoinedFixup {
			t.Errorf("seed %d: served (size=%d k=%d lp=%v joined=%d+%d) != in-process (size=%d k=%d lp=%v joined=%d+%d)",
				seed, sr.Size, sr.K, sr.LPObjective, sr.JoinedRandom, sr.JoinedFixup,
				want.Size, want.K, want.LPObjective, want.JoinedRandom, want.JoinedFixup)
		}
		if !slices.Equal(sr.Members, kwmds.SetMembers(want.InDS)) {
			t.Errorf("seed %d: served members differ from in-process", seed)
		}
	}
}
