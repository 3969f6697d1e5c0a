package main

import (
	"fmt"
	"os"
	"path/filepath"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/stats"
)

// workload is one named traffic shape. Everything but the seed is fixed
// here: the seed picks the graph and the op parameters, --seconds only
// scales the length of the op schedule.
type workload struct {
	name   string
	n      int     // vertices of the seeded unit-disk graph
	radius float64 // its connection radius
	// rate is the nominal ops per second: a run's measured schedule holds
	// rate × seconds ops, fixed before the run starts and never time-boxed.
	rate  float64
	warm  int // warm-up ops, timed as part of setup_s
	conns int // client connections
}

// Two more workloads were dropped because the host's speed shifts moved
// their timings past the bounds within one set of runs: solve-large (the
// facade on a 100k-vertex graph) and serve-hot (cached solves over one
// connection, whose op is mostly a loopback round trip). serve-churn's
// cached re-solve now carries serve-hot's layers. See METHODOLOGY.md.
var workloads = []workload{
	// Distinct-seed solves of a 10k-vertex preload over two connections.
	{name: "serve-cold", n: 10_000, radius: 0.02, rate: 360, warm: 20, conns: 2},
	// Durable mutate, solve of the new epoch, and the same solve again
	// from the cache, over one connection.
	{name: "serve-churn", n: 10_000, radius: 0.02, rate: 130, warm: 5, conns: 1},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want serve-cold or serve-churn)", name)
}

const (
	solveK       = 3  // k of every solve
	churnPairs   = 32 // serve-churn toggles edges among this many vertex pairs
	churnToggles = 4  // edge toggles per serve-churn mutate
)

// solveKey is the part of a solve request the schedule varies.
type solveKey struct {
	K    int   `json:"k"`
	Seed int64 `json:"seed"`
}

// schedule is a workload's complete op list, derived from the seed alone.
type schedule struct {
	// Keys[i] is op i's solve.
	Keys []solveKey `json:"keys"`
	// Warm leading ops are warm-up, the rest are measured, as Chunks
	// consecutive chunks of equal length: one per nominal second.
	Warm   int `json:"warm"`
	Chunks int `json:"chunks"`
	// Muts[i] is the edge-toggle batch serve-churn's op i commits before
	// its solve (nil for serve-cold).
	Muts [][]graphio.Mutation `json:"muts,omitempty"`
}

func (s *schedule) measured() int { return len(s.Keys) - s.Warm }

// makeSchedule derives the op schedule of w from seed. g is the graph the
// ops run against; serve-churn reads its edges to turn toggles into
// add_edge or remove_edge.
func makeSchedule(w workload, seed int64, seconds int, g *graph.Graph) schedule {
	rng := stats.NewStreamRand(seed, 0x5eed)
	total := w.warm + int(w.rate*float64(seconds))
	s := schedule{Keys: make([]solveKey, total), Warm: w.warm, Chunks: seconds}
	// Every op solves a seed no earlier op used, so its first solve can
	// never be answered from the cache.
	base := rng.Int64() >> 8
	for i := range s.Keys {
		s.Keys[i] = solveKey{K: solveK, Seed: base + int64(i)}
	}
	if w.name == "serve-churn" {
		s.Muts = churnMutations(rng.Uint64(), g, total)
	}
	return s
}

// churnMutations returns total batches of churnToggles edge toggles over a
// fixed pool of vertex pairs, so the graph wanders around its start instead
// of drifting away from it. A toggle removes the pair's edge when present
// and adds it otherwise.
func churnMutations(seed uint64, g *graph.Graph, total int) [][]graphio.Mutation {
	rng := stats.NewStreamRand(int64(seed), 0xc4)
	type pair struct {
		u, v    int
		present bool
	}
	pairs := make([]pair, 0, churnPairs)
	seen := make(map[[2]int]bool, churnPairs)
	for len(pairs) < churnPairs {
		u, v := rng.IntN(g.N()), rng.IntN(g.N())
		if u == v || seen[[2]int{min(u, v), max(u, v)}] {
			continue
		}
		seen[[2]int{min(u, v), max(u, v)}] = true
		pairs = append(pairs, pair{u: u, v: v, present: g.HasEdge(u, v)})
	}
	muts := make([][]graphio.Mutation, total)
	for i := range muts {
		batch := make([]graphio.Mutation, churnToggles)
		for j, pi := range rng.Perm(churnPairs)[:churnToggles] {
			p := &pairs[pi]
			batch[j] = graphio.Mutation{Op: graphio.OpAddEdge, U: p.u, V: p.v}
			if p.present {
				batch[j].Op = graphio.OpRemoveEdge
			}
			p.present = !p.present
		}
		muts[i] = batch
	}
	return muts
}

// writeInputs generates w's graph from seed into dir/graph.kwcsr and
// returns the job that runs it: the file, its digest and the op schedule.
func writeInputs(w workload, seed int64, seconds int, dir string) (job, error) {
	g, err := gen.UnitDisk(w.n, w.radius, seed)
	if err != nil {
		return job{}, err
	}
	path := filepath.Join(dir, "graph.kwcsr")
	f, err := os.Create(path)
	if err != nil {
		return job{}, err
	}
	if err := graphio.WriteBinaryCSR(f, g, nil); err != nil {
		f.Close()
		return job{}, err
	}
	if err := f.Close(); err != nil {
		return job{}, err
	}
	return job{Workload: w.name, Graph: path, Digest: graphio.Digest(g), Sched: makeSchedule(w, seed, seconds, g)}, nil
}
