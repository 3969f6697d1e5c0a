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
	// LoadMS is how long materializing the graph took (generation, text
	// parse, or binary load) — reported per graph so graph-acquisition
	// cost is visible separately from solve cost.
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
	// behaves like cached_solve). For mutate ops Seed picks the edge; for
	// batch_solve ops the batch's member seeds derive from Seed.
	Kind string
	// Tenant is the owning tenant loop of a multi-tenant scenario (0 for
	// single-tenant).
	Tenant int
}

// OpResult is what a driver reports per operation; the runner uses Size for
// cross-checking, Cached for hit-rate accounting, InDS (inproc drivers
// only) for the mobility replay's churn accounting, and Shed to count 429
// admission refusals as sheds rather than errors.
type OpResult struct {
	Size   int
	Cached bool
	Shed   bool
	InDS   []bool
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
// HTTP connection pools. shards > 1 selects the partitioned engine (one
// sweep arm of Scenario.Shards); 0 or 1 is the plain unsharded path.
func newDriver(sc *Scenario, concurrency, shards int) (Driver, error) {
	switch sc.Driver {
	case DriverInprocFast:
		return &inprocDriver{
			sequential:  true,
			concurrency: concurrency,
			shards:      shards,
			reorder:     sc.Reorder,
		}, nil
	case DriverInprocSim:
		return &inprocDriver{sequential: false, concurrency: concurrency}, nil
	case DriverHTTPServe:
		d := &httpDriver{concurrency: concurrency, shards: shards, timeout: 120 * time.Second}
		if sc.HTTP != nil {
			d.url = sc.HTTP.URL
			d.workers = sc.HTTP.Workers
			d.cacheEntries = sc.HTTP.CacheEntries
			d.maxQueue = sc.HTTP.MaxQueue
			if sc.HTTP.TimeoutSec > 0 {
				d.timeout = time.Duration(sc.HTTP.TimeoutSec * float64(time.Second))
			}
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

// inprocDriver runs operations through the public facade: the fastpath
// backend when sequential, the message-passing simulation otherwise. It is
// the driver for measuring pure solve compute, with no protocol overhead on
// the measured path.
type inprocDriver struct {
	sequential  bool
	concurrency int
	shards      int
	reorder     bool
	graphs      []LoadedGraph
	// parts are the per-graph partitions for sharded arms (shards > 1):
	// built once in Prepare so the measured operations solve through
	// DominatingSetSharded without re-partitioning per op.
	parts []*graph.ShardedCSR
	// relabs are the per-graph degree-ordered relabelings for reorder
	// scenarios, built once in Prepare — like partitions, the relabeling is
	// per-topology setup, not per-op work.
	relabs []*kwmds.ReorderedGraph
}

func (d *inprocDriver) Prepare(graphs []LoadedGraph) error {
	d.graphs = graphs
	if d.shards > 1 {
		d.parts = make([]*graph.ShardedCSR, len(graphs))
		for i, lg := range graphs {
			sc, err := kwmds.PartitionGraph(lg.G, d.shards)
			if err != nil {
				return fmt.Errorf("kwbench: partitioning %q into %d shards: %w", lg.Name, d.shards, err)
			}
			d.parts[i] = sc
		}
	}
	if d.reorder {
		d.relabs = make([]*kwmds.ReorderedGraph, len(graphs))
		for i, lg := range graphs {
			d.relabs[i] = kwmds.Reorder(lg.G)
		}
	}
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

func (d *inprocDriver) options(req Request) kwmds.Options {
	opts := pipelineOptions(req.Algo, req.Variant, req.K, req.Seed, d.sequential)
	if d.sequential {
		// Split the machine between concurrent operations the same way
		// the serve subsystem does: with C operations in flight each
		// solver gets its share of GOMAXPROCS instead of a full-width
		// phase pool.
		opts.SolverWorkers = max(1, runtime.GOMAXPROCS(0)/max(1, d.concurrency))
		if d.reorder && req.Algo != "kwcds" {
			opts.Reordered = d.relabs[req.Graph]
		}
	}
	return opts
}

func (d *inprocDriver) Do(req Request) (OpResult, error) {
	g := d.graphs[req.Graph].G
	if req.Kind == KindBatchSolve {
		// One batch_solve op is a fixed-width DominatingSetMany call: the
		// member seeds derive from the op's seed so the batch content stays
		// a pure function of the request schedule.
		optsList := make([]kwmds.Options, mixBatchWidth)
		for j := range optsList {
			r := req
			r.Seed = req.Seed*mixBatchWidth + int64(j)
			optsList[j] = d.options(r)
		}
		results, err := kwmds.DominatingSetMany(g, optsList)
		if err != nil {
			return OpResult{}, err
		}
		return OpResult{Size: results[0].Size, InDS: results[0].InDS}, nil
	}
	opts := d.options(req)
	switch req.Algo {
	case "frac":
		if _, err := kwmds.FractionalDominatingSet(g, opts); err != nil {
			return OpResult{}, err
		}
		return OpResult{}, nil
	case "kwcds":
		res, err := kwmds.ConnectedDominatingSet(g, opts)
		if err != nil {
			return OpResult{}, err
		}
		return OpResult{Size: res.Size, InDS: res.InDS}, nil
	default: // kw, kw2
		var res *kwmds.Result
		var err error
		if d.shards > 1 {
			res, err = kwmds.DominatingSetSharded(d.parts[req.Graph], opts)
		} else {
			res, err = kwmds.DominatingSet(g, opts)
		}
		if err != nil {
			return OpResult{}, err
		}
		return OpResult{Size: res.Size, InDS: res.InDS}, nil
	}
}

func (d *inprocDriver) Close() error { return nil }

// DoBatch executes consecutive requests through kwmds.DominatingSetMany,
// splitting at graph changes (a batch shares one graph by construction of
// the facade API). Outputs are bit-identical to per-request Do calls; the
// runner's cross-check pass verifies exactly that against the sim backend.
// Only kw|kw2 requests are valid here (enforced at scenario validation).
func (d *inprocDriver) DoBatch(reqs []Request) ([]OpResult, error) {
	out := make([]OpResult, 0, len(reqs))
	for start := 0; start < len(reqs); {
		end := start + 1
		for end < len(reqs) && reqs[end].Graph == reqs[start].Graph {
			end++
		}
		run := reqs[start:end]
		optsList := make([]kwmds.Options, len(run))
		for i, r := range run {
			optsList[i] = d.options(r)
		}
		results, err := kwmds.DominatingSetMany(d.graphs[run[0].Graph].G, optsList)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			out = append(out, OpResult{Size: res.Size, InDS: res.InDS})
		}
		start = end
	}
	return out, nil
}

// httpDriver drives POST /v1/solve. With no URL it spawns an in-process
// serve instance preloaded with the scenario's graph set — the whole stack
// (HTTP transport, JSON codec, worker pool, LRU, single-flight) is on the
// measured path, over loopback. With a URL it targets a remote server that
// must already hold the graphs under the same names.
type httpDriver struct {
	url          string
	workers      int
	cacheEntries int
	concurrency  int
	shards       int
	timeout      time.Duration
	maxQueue     int
	queueTimeout time.Duration
	mutate       bool

	graphs  []LoadedGraph
	srv     *server.Server // nil when remote
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
	if d.url == "" {
		m := make(map[string]*graph.Graph, len(graphs))
		for _, lg := range graphs {
			m[lg.Name] = lg.G
		}
		d.srv = server.New(server.Config{
			Workers:      d.workers,
			CacheEntries: d.cacheEntries,
			Graphs:       m,
			Shards:       d.shards,
			MaxQueue:     d.maxQueue,
			QueueTimeout: d.queueTimeout,
		})
		d.ts = httptest.NewServer(d.srv.Handler())
		d.baseURL = d.ts.URL
	} else {
		d.baseURL = d.url
	}
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
		Timeout: d.timeout, // a hung target fails the run instead of wedging it
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
	if d.srv != nil {
		_, d.hits0, d.misses0 = d.srv.Stats()
	}
}

// Stats exposes the spawned server's cache counters since the last
// MarkWarm (zero when remote).
func (d *httpDriver) Stats() (hits, misses int64) {
	if d.srv == nil {
		return 0, 0
	}
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

// variantWire maps the spec's variant to the wire default convention.
func variantWire(v string) string {
	if v == "ln" {
		return "" // the wire default
	}
	return v
}
