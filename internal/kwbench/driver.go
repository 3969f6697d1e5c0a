package kwbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"time"

	"kwmds"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/server"
)

// LoadedGraph is one materialized member of a scenario's graph set.
type LoadedGraph struct {
	Name string
	G    *graph.Graph
	// LoadMS is how long generating the graph took — reported per graph
	// so graph-acquisition cost is visible separately from solve cost.
	LoadMS float64
}

// Request is one operation of the workload: a graph selection plus one
// matrix combination and a rounding seed. The runner precomputes the whole
// request schedule so it is a pure function of the scenario spec.
type Request struct {
	Graph   int // index into the loaded graph set
	Algo    string
	K       int
	Seed    int64
	Variant string
	// Kind is the mixed-workload operation kind ("" = legacy solve, which
	// behaves like cached_solve). For mutate ops Seed picks the edge.
	Kind string
}

// OpResult is what a driver reports per operation; the runner uses Size and
// Set (the inproc driver only) for cross-checking and the mobility replay's
// churn accounting, Cached for hit-rate accounting, and Shed to count 429
// admission refusals as sheds rather than errors. Set holds the members 64
// vertices a word, as kwmds.PackedResult does.
type OpResult struct {
	Size   int
	Cached bool
	Shed   bool
	Set    []uint64
}

// Driver executes operations against one backend. Implementations must be
// safe for concurrent Do calls — both loop modes issue them from many
// goroutines.
type Driver interface {
	// Prepare receives the materialized graph set before any operation.
	Prepare(graphs []LoadedGraph) error
	// Do executes one operation.
	Do(req Request) (OpResult, error)
	// Close releases spawned resources (servers, clients).
	Close() error
}

// newDriver constructs the scenario's driver. concurrency is the peak
// number of in-flight operations, used to size per-solve parallelism and
// HTTP connection pools.
func newDriver(sc *Scenario, concurrency int) (Driver, error) {
	switch sc.Driver {
	case DriverInprocFast:
		return &inprocDriver{concurrency: concurrency}, nil
	case DriverHTTPServe:
		d := &httpDriver{concurrency: concurrency}
		if sc.HTTP != nil {
			d.workers = sc.HTTP.Workers
			d.maxQueue = sc.HTTP.MaxQueue
			if sc.HTTP.QueueTimeoutSec > 0 {
				d.queueTimeout = time.Duration(sc.HTTP.QueueTimeoutSec * float64(time.Second))
			}
		}
		d.mutate = sc.Mix != nil && sc.Mix.Mutate > 0
		return d, nil
	default:
		return nil, fmt.Errorf("kwbench: unknown driver %q", sc.Driver)
	}
}

// inprocDriver runs operations through the facade's fastpath backend: the
// driver for measuring pure solve compute, with no protocol overhead on the
// measured path. Each op makes the packed call the server makes, so it
// times no copy of x and no unpack of the set.
type inprocDriver struct {
	concurrency int
	graphs      []LoadedGraph
}

func (d *inprocDriver) Prepare(graphs []LoadedGraph) error {
	d.graphs = graphs
	return nil
}

// pipelineOptions is the single mapping from the scenario vocabulary
// (algo, variant strings) onto facade options; the inproc driver, the
// mobility rebuild mode and the cross-check passes all resolve through it
// so the "directly comparable" contract between paths cannot drift.
func pipelineOptions(algo, variant string, k int, seed int64, sequential bool) kwmds.Options {
	opts := kwmds.Options{K: k, Seed: seed, Sequential: sequential, KnownDelta: algo == "kw2"}
	if variant == "ln-lnln" {
		opts.Variant = kwmds.VariantLnMinusLnLn
	}
	return opts
}

// solvePacked is the one solve every measured op and every cross-check
// makes: the fastpath backend when opts.Sequential is set, the
// message-passing simulation otherwise.
func solvePacked(g *graph.Graph, opts kwmds.Options) (OpResult, error) {
	res, err := kwmds.DominatingSetPacked(g, opts)
	if err != nil {
		return OpResult{}, err
	}
	return OpResult{Size: res.Size, Set: res.Set}, nil
}

func (d *inprocDriver) Do(req Request) (OpResult, error) {
	opts := pipelineOptions(req.Algo, req.Variant, req.K, req.Seed, true)
	// Split the machine between concurrent operations the same way the
	// serve subsystem does: with C operations in flight each solver's
	// forked sweeps get its share of GOMAXPROCS instead of full width.
	opts.SolverWorkers = max(1, runtime.GOMAXPROCS(0)/max(1, d.concurrency))
	return solvePacked(d.graphs[req.Graph].G, opts)
}

func (d *inprocDriver) Close() error { return nil }

// httpDriver drives POST /v1/solve against an in-process serve instance it
// spawns, preloaded with the scenario's graph set — the whole stack (HTTP
// transport, JSON codec, worker pool, LRU, single-flight) is on the
// measured path, over loopback.
type httpDriver struct {
	workers      int
	concurrency  int
	maxQueue     int
	queueTimeout time.Duration
	mutate       bool

	graphs  []LoadedGraph
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	baseURL string
	// mutators serialize mutate ops per graph (index-aligned with graphs);
	// built in Prepare only when the mix carries mutate weight.
	mutators []*graphMutator
	// hits0/misses0 snapshot the cache counters at the warmup/measure
	// boundary (MarkWarm) so Stats reports measured-phase deltas.
	hits0, misses0 int64
}

// graphMutator serializes mutate ops against one graph and tracks which of
// its original edges are currently toggled off, so every mutate op is a
// clean remove-or-restore of an existing edge and never a spurious 400.
type graphMutator struct {
	mu    sync.Mutex
	edges [][2]int
	off   map[int]bool
}

func (d *httpDriver) Prepare(graphs []LoadedGraph) error {
	d.graphs = graphs
	m := make(map[string]*graph.Graph, len(graphs))
	for _, lg := range graphs {
		m[lg.Name] = lg.G
	}
	d.srv = server.New(server.Config{
		Workers:      d.workers,
		Graphs:       m,
		MaxQueue:     d.maxQueue,
		QueueTimeout: d.queueTimeout,
	})
	d.ts = httptest.NewServer(d.srv.Handler())
	d.baseURL = d.ts.URL
	if d.mutate {
		d.mutators = make([]*graphMutator, len(graphs))
		for i, lg := range graphs {
			edges := lg.G.Edges()
			if len(edges) == 0 {
				return fmt.Errorf("kwbench: graph %q has no edges to mutate", lg.Name)
			}
			d.mutators[i] = &graphMutator{edges: edges, off: make(map[int]bool)}
		}
	}
	d.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: max(2, d.concurrency),
		},
	}
	return nil
}

func (d *httpDriver) Do(req Request) (OpResult, error) {
	if req.Kind == KindMutate {
		return d.doMutate(req)
	}
	body, err := json.Marshal(graphio.SolveRequest{
		GraphRef: d.graphs[req.Graph].Name,
		Algo:     req.Algo,
		K:        req.K,
		Seed:     req.Seed,
		Variant:  variantWire(req.Variant),
	})
	if err != nil {
		return OpResult{}, err
	}
	resp, err := d.client.Post(d.baseURL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return OpResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		// Admission control refused the solve: a shed, not an error. The
		// collector keeps it out of the latency histogram and counts it
		// toward the shed rate.
		io.Copy(io.Discard, resp.Body)
		return OpResult{Shed: true}, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return OpResult{}, fmt.Errorf("kwbench: serve returned %d: %s", resp.StatusCode, msg)
	}
	var sr graphio.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return OpResult{}, err
	}
	return OpResult{Size: sr.Size, Cached: sr.Cached}, nil
}

// doMutate toggles one edge of the op's graph through the serve mutation
// API. The per-graph mutex is held across the HTTP call so concurrent
// mutate ops against one graph apply in a consistent toggle order; mutate
// ops are never shed (admission control gates solves only), so a non-200
// here is a real error.
func (d *httpDriver) doMutate(req Request) (OpResult, error) {
	m := d.mutators[req.Graph]
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := int(req.Seed % int64(len(m.edges)))
	if idx < 0 {
		idx += len(m.edges)
	}
	e := m.edges[idx]
	op := graphio.OpRemoveEdge
	if m.off[idx] {
		op = graphio.OpAddEdge
	}
	body, err := json.Marshal(graphio.MutateRequest{
		Mutations: []graphio.Mutation{{Op: op, U: e[0], V: e[1]}},
	})
	if err != nil {
		return OpResult{}, err
	}
	u := d.baseURL + "/v1/graphs/" + url.PathEscape(d.graphs[req.Graph].Name) + "/mutate"
	resp, err := d.client.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return OpResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return OpResult{}, fmt.Errorf("kwbench: mutate returned %d: %s", resp.StatusCode, msg)
	}
	io.Copy(io.Discard, resp.Body)
	m.off[idx] = !m.off[idx]
	return OpResult{}, nil
}

// MarkWarm snapshots the cache counters at the warmup/measure boundary;
// Stats then reports measured-phase activity only.
func (d *httpDriver) MarkWarm() {
	_, d.hits0, d.misses0 = d.srv.Stats()
}

// Stats exposes the spawned server's cache counters since the last
// MarkWarm.
func (d *httpDriver) Stats() (hits, misses int64) {
	_, hits, misses = d.srv.Stats()
	return hits - d.hits0, misses - d.misses0
}

func (d *httpDriver) Close() error {
	if d.ts != nil {
		d.ts.Close()
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	return nil
}

// requestTimeout bounds each HTTP request, so a hung server fails the run
// instead of wedging it.
const requestTimeout = 120 * time.Second

// variantWire maps the spec's variant to the wire default convention.
func variantWire(v string) string {
	if v == "ln" {
		return "" // the wire default
	}
	return v
}
