package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"kwmds"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/stats"
)

// TestServedChurnMatchesColdOracle drives the served churn path over a
// long chain: a durable preload of 1 500 vertices at serve-churn's mean
// degree, then 200 rounds of a 4-toggle mutate (commit, WAL append and
// fsync) followed by a solve of the new epoch that asks for its members —
// the solve the server's pooled solvers answer by repairing their state
// from the previous epoch and replaying its LP stage. The oracle has no
// lineage: it keeps its own edge set, rebuilds the graph with graph.New
// every round and solves it with kwmds.DominatingSet, a full pipeline
// from scratch. Every answer must match it member for member.
func TestServedChurnMatchesColdOracle(t *testing.T) {
	const n, rounds = 1500, 200
	g, err := gen.UnitDisk(n, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := durableServer(t, t.TempDir(), g)
	edges := map[[2]int]bool{}
	for _, e := range g.Edges() {
		edges[e] = true
	}
	rng := stats.NewRand(5)
	var pairs [][2]int
	for len(pairs) < 32 {
		u, v := rng.IntN(n), rng.IntN(n)
		if e := [2]int{min(u, v), max(u, v)}; u != v && !slices.Contains(pairs, e) {
			pairs = append(pairs, e)
		}
	}
	for round := 1; round <= rounds; round++ {
		var muts []string
		for _, i := range rng.Perm(len(pairs))[:4] {
			e := pairs[i]
			op := "add_edge"
			if edges[e] {
				op = "remove_edge"
				delete(edges, e)
			} else {
				edges[e] = true
			}
			muts = append(muts, fmt.Sprintf(`{"op":%q,"u":%d,"v":%d}`, op, e[0], e[1]))
		}
		if resp, _ := postMutate(t, ts, "g", `{"mutations":[`+strings.Join(muts, ",")+`]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: mutate answered %d", round, resp.StatusCode)
		}
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"graph_ref":"g","k":3,"seed":%d,"members":true}`, round)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: solve answered %d: %s", round, resp.StatusCode, data)
		}
		var got graphio.SolveResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}

		list := make([][2]int, 0, len(edges))
		for e := range edges {
			list = append(list, e)
		}
		og, err := graph.New(n, list)
		if err != nil {
			t.Fatal(err)
		}
		want, err := kwmds.DominatingSet(og, kwmds.Options{K: 3, Seed: int64(round)})
		if err != nil {
			t.Fatal(err)
		}
		var members []int
		for v, in := range want.InDS {
			if in {
				members = append(members, v)
			}
		}
		if got.Size != want.Size || !slices.Equal(got.Members, members) {
			t.Fatalf("round %d: served size %d members %v, oracle size %d members %v",
				round, got.Size, got.Members, want.Size, members)
		}
	}
}
