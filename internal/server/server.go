package server

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kwmds"
	"kwmds/internal/dyngraph"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/wal"
)

// Config sizes the service.
type Config struct {
	// Workers bounds the number of pipeline runs executing concurrently;
	// excess requests queue. Default GOMAXPROCS.
	Workers int
	// MaxQueue bounds the admission queue in front of the worker pool: at
	// most Workers running plus MaxQueue waiting computations — solves and
	// inline-graph builds — are admitted, and anything beyond that is shed
	// immediately with 429 + Retry-After (ErrorResponse code
	// "overloaded"). 0 leaves admission unbounded — the
	// pre-admission-control behavior, where an overloaded server queues
	// without limit.
	MaxQueue int
	// QueueTimeout bounds how long an admitted computation may wait for a
	// worker slot; one whose wait outlives it is shed with 429. It gates
	// every computation: inline-graph builds and cold solves. 0 disables
	// the timeout.
	QueueTimeout time.Duration
	// CacheEntries is the LRU capacity in results. 0 selects the default
	// of 256; a negative value disables caching (single-flight coalescing
	// still applies).
	CacheEntries int
	// Graphs are the preloaded topologies addressable via "graph_ref".
	Graphs map[string]*graph.Graph
	// Preloads are preloaded graphs carrying full lifecycle state — a
	// dynamic engine possibly recovered at a nonzero epoch, an optional
	// write-ahead log (mutations then commit durably before the 200), and
	// an optional mmapped snapshot backing the engine's base graph. The
	// server takes ownership: Close (and DELETE /v1/graphs/{name}) closes
	// the log and the mapping. Merged with Graphs; names must not collide.
	Preloads map[string]Preload
	// MaxBodyBytes caps the request body. Default 64 MiB.
	MaxBodyBytes int64
	// MaxInlineVertices caps the "n" of inline graphs. The body limit
	// already bounds the edge list, but a tiny body can declare an
	// enormous vertex count and graph.New allocates O(n) regardless —
	// unchecked, a 40-byte request could OOM the process. Default 2e6.
	MaxInlineVertices int
}

// Preload is one entry of Config.Preloads. Dyn is required; Log and Mapped
// are optional and pass to the server's ownership. Tree, when non-nil, is
// the digest tree of Dyn.Graph() (wal.Recovered.Tree) and passes to the
// server too; without it the server hashes the graph itself.
type Preload struct {
	Dyn    *dyngraph.Dynamic
	Log    *wal.Log
	Mapped *graphio.MappedGraph
	Tree   *graphio.DigestTree
}

// Server answers dominating-set queries over HTTP. It is safe for
// concurrent use; every pipeline run goes through the bounded worker pool.
type Server struct {
	cfg   Config
	sem   chan struct{}
	cache *resultCache
	mux   *http.ServeMux
	// gmu guards the graph registry (graphs, names): DELETE removes
	// entries at runtime, so every lookup takes the read lock.
	gmu    sync.RWMutex
	graphs map[string]*preloaded
	names  []string
	// Admission-control counters: queued is the number of computations
	// currently inside the admission queue (waiting for, or about to take,
	// a worker slot) and sheds the lifetime count of solves refused with
	// 429 (queue full or queue timeout).
	queued atomic.Int64
	sheds  atomic.Int64
	// Per-engine solve latency histograms for /metrics (cold solves only —
	// cache hits cost microseconds and would drown the signal).
	lmu       sync.Mutex
	solveHist map[string]*solveStats
	closeOnce sync.Once
}

// preloaded is one named graph, mutable through POST /v1/graphs/{name}/
// mutate. Solves snapshot (graph, digest, epoch) under the read lock and
// compute outside it — snapshots are immutable, so an interleaved mutation
// never disturbs a running solve; it only changes what later requests see.
// Mutations hold the write lock across apply + commit + digest, so the
// three fields always agree.
type preloaded struct {
	mu     sync.RWMutex
	dyn    *dyngraph.Dynamic
	digest string
	// tree is the digest tree of dyn's graph; its root is digest's raw form,
	// what WAL records embed. A mutate re-hashes only the blocks its commit
	// touched.
	tree *graphio.DigestTree
	// log, when non-nil, is the graph's write-ahead log: every committed
	// epoch appends one record, and mutate answers 200 only after the
	// record is durable (unless the request opts out with sync=false).
	log *wal.Log
	// mapped, when non-nil, is the mmapped snapshot backing dyn's base
	// graph. Solves retain it for their duration; DELETE and Close drop
	// the owner reference, unmapping once the last solve releases.
	mapped *graphio.MappedGraph
	// deleted is set, under mu, by DELETE and Close: a mutate that looked
	// the graph up before then answers 404 instead of committing to a
	// graph that is gone, with its log closed.
	deleted bool
}

// newPreloaded registers dyn under its digest tree, built here when tree
// is nil.
func newPreloaded(dyn *dyngraph.Dynamic, tree *graphio.DigestTree) *preloaded {
	if tree == nil {
		tree = graphio.NewDigestTree(dyn.Graph())
	}
	root := tree.Root()
	return &preloaded{dyn: dyn, digest: hex.EncodeToString(root[:]), tree: tree}
}

// snapshot returns a consistent (graph, digest, epoch, costs) view.
func (p *preloaded) snapshot() (*graph.Graph, string, int64, []float64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.dyn.Graph(), p.digest, p.dyn.Epoch(), p.dyn.Costs()
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.CacheEntries < 0 {
		cfg.CacheEntries = 0
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.MaxInlineVertices <= 0 {
		cfg.MaxInlineVertices = 2_000_000
	}
	s := &Server{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.Workers),
		cache:     newResultCache(cfg.CacheEntries),
		mux:       http.NewServeMux(),
		graphs:    make(map[string]*preloaded, len(cfg.Graphs)+len(cfg.Preloads)),
		solveHist: make(map[string]*solveStats),
	}
	for name, g := range cfg.Graphs {
		s.graphs[name] = newPreloaded(dyngraph.New(g), nil)
		s.names = append(s.names, name)
	}
	for name, p := range cfg.Preloads {
		pl := newPreloaded(p.Dyn, p.Tree)
		pl.log, pl.mapped = p.Log, p.Mapped
		s.graphs[name] = pl
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("POST /v1/graphs/{name}/mutate", s.handleMutate)
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleDelete)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// lookup resolves a preloaded graph by name under the registry read lock.
func (s *Server) lookup(name string) (*preloaded, bool) {
	s.gmu.RLock()
	p, ok := s.graphs[name]
	s.gmu.RUnlock()
	return p, ok
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases everything the server owns: every preloaded graph's
// write-ahead log (flushed first, so records committed with sync=false
// become durable before the process exits — the graceful-drain contract)
// and every mmapped snapshot. Idempotent. In-flight HTTP requests are the
// caller's to drain (see Graceful) before calling Close.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.gmu.RLock()
		ps := make([]*preloaded, 0, len(s.graphs))
		for _, p := range s.graphs {
			ps = append(ps, p)
		}
		s.gmu.RUnlock()
		for _, p := range ps {
			p.mu.Lock()
			mapped := p.release()
			p.mu.Unlock()
			if mapped != nil {
				mapped.Close()
			}
		}
	})
}

// release marks p deleted, closes its log and hands back its mapping for
// the caller to close once p.mu is released. The caller holds p.mu.
func (p *preloaded) release() *graphio.MappedGraph {
	p.deleted = true
	if p.log != nil {
		p.log.Close()
		p.log = nil
	}
	mapped := p.mapped
	p.mapped = nil
	return mapped
}

// httpError carries a status code alongside the client-facing message.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, graphio.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, err := graphio.DecodeSolveRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.solve(r.Context(), req)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			writeError(w, he.status, "%s", he.msg)
			return
		}
		if errors.Is(err, errOverloaded) {
			// Typed shed: the computation never started, so the client may
			// retry after backing off. Load generators (kwbench) count these
			// as sheds, not errors.
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, graphio.ErrorResponse{
				Error: err.Error(), Code: graphio.CodeOverloaded,
			})
			return
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client stopped listening mid-solve. 499 (nginx's "client
			// closed request") keeps the access log honest; the write itself
			// usually lands on a closed connection.
			writeError(w, 499, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// errSolveAbandoned reports a queued solve whose every waiting client
// disconnected before a worker slot freed up.
var errSolveAbandoned = errors.New("solve abandoned: all waiting clients disconnected")

// errOverloaded reports a solve shed by admission control (queue full or
// queue-timeout expiry); handleSolve maps it to 429 + Retry-After with the
// stable "overloaded" error code. The computation never started, so the
// request is safely retryable.
var errOverloaded = errors.New("server overloaded")

// admit takes a worker slot through the bounded admission queue, the one
// path by which any computation waits for a slot: with MaxQueue set, at
// most MaxQueue computations may be waiting at once and the rest are shed
// without blocking; with QueueTimeout set, an admitted computation whose
// slot wait outlives the timeout is shed too; and a wait gives up once
// cancel closes (every client interested in the computation has walked
// out — see resultCache.getOrCompute). Callers that got the slot release
// with `<-s.sem`.
func (s *Server) admit(cancel <-chan struct{}) error {
	if limit := s.cfg.MaxQueue; limit > 0 {
		if s.queued.Add(1) > int64(limit) {
			s.queued.Add(-1)
			s.sheds.Add(1)
			return fmt.Errorf("%w: admission queue full (%d waiting)", errOverloaded, limit)
		}
		defer s.queued.Add(-1)
	}
	var timeout <-chan time.Time // nil, so never ready, without a QueueTimeout
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-timeout:
		s.sheds.Add(1)
		return fmt.Errorf("%w: no worker slot within the %v queue timeout", errOverloaded, s.cfg.QueueTimeout)
	case <-cancel:
		return errSolveAbandoned
	}
}

// solve resolves the topology, validates the options, and answers from the
// cache or by a pooled pipeline run. The returned response is the caller's
// to keep (never an aliased cache entry). ctx bounds only this caller's
// wait: when it ends the request unblocks with ctx.Err(), while the
// underlying computation keeps running for any other caller still coalesced
// on it — and aborts early once the last one leaves.
func (s *Server) solve(ctx context.Context, req *graphio.SolveRequest) (*graphio.SolveResponse, error) {
	var g *graph.Graph
	var digest string
	var epoch int64
	if req.GraphRef != "" {
		p, ok := s.lookup(req.GraphRef)
		if !ok {
			return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown graph_ref %q (see /v1/graphs)", req.GraphRef)}
		}
		p.mu.RLock()
		mapped := p.mapped
		p.mu.RUnlock()
		if mapped != nil {
			// Pin the mmapped base for the solve's duration: a concurrent
			// DELETE drops the owner reference, and epoch-0 (and weight-only
			// epoch) snapshots read straight off those pages. A failed
			// Retain means the mapping is already gone — the graph lost a
			// race with its deletion.
			if !mapped.Retain() {
				return nil, &httpError{http.StatusNotFound, fmt.Sprintf("graph %q was deleted", req.GraphRef)}
			}
			defer mapped.Release()
		}
		var costs []float64
		g, digest, epoch, costs = p.snapshot()
		if req.Epoch != nil && *req.Epoch != epoch {
			return nil, &httpError{http.StatusConflict,
				fmt.Sprintf("stale epoch: graph %q is at epoch %d, request pinned %d", req.GraphRef, epoch, *req.Epoch)}
		}
		if req.UseGraphWeights {
			if costs == nil {
				return nil, &httpError{http.StatusBadRequest,
					fmt.Sprintf("graph %q has no weights (no set_weight mutation was ever applied)", req.GraphRef)}
			}
			req.Weights = costs
		}
	} else {
		// Materialize and digest in a worker slot taken through admission:
		// decoding a body-sized edge list and building its CSR is real
		// allocation and CPU, and must not run unbounded on N request
		// goroutines (the envelope decode upstream keeps the graph as raw
		// bytes). A waiter whose client leaves gives up its place and its
		// body instead of building a graph nobody will read.
		if err := s.admit(ctx.Done()); err != nil {
			if errors.Is(err, errSolveAbandoned) {
				return nil, ctx.Err()
			}
			return nil, err
		}
		var err error
		g, err = req.BuildGraph(s.cfg.MaxInlineVertices)
		if err == nil {
			digest = graphio.Digest(g)
		}
		<-s.sem
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, err.Error()}
		}
	}

	// Engine dispatch: the default "fast" engine maps to the facade's
	// Sequential path — the pooled internal/fastpath solver, which reuses
	// one set of buffers across all cold solves of this capacity class.
	// "sim" (opt-in) runs the message-passing simulation for callers who
	// want the rounds/messages/bits accounting. SolverWorkers splits the
	// machine between the request pool and the solvers' forked sweeps:
	// with Workers requests in flight, each solver's sweeps get its share
	// of GOMAXPROCS instead of forking full width. The LP phases that
	// emit lists run on the request's goroutine either way.
	opts := kwmds.Options{
		K: req.K, Seed: req.Seed,
		Sequential:    req.Engine != "sim",
		SolverWorkers: max(1, runtime.GOMAXPROCS(0)/s.cfg.Workers),
	}
	if req.Algo == "kw2" {
		opts.KnownDelta = true
	}
	if req.Variant == "ln-lnln" {
		opts.Variant = kwmds.VariantLnMinusLnLn
	}
	if len(req.Weights) > 0 {
		opts.Weights = req.Weights
	}
	// Reject invalid options before touching the pool: a malformed request
	// body must never panic or occupy a worker.
	if err := opts.Validate(g); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}

	key := cacheKey(digest, req, opts)
	cached, hit, err := s.cache.getOrCompute(ctx, key, func(cancel <-chan struct{}) (*solveResult, error) {
		// cancel closes when every coalesced client has disconnected; both
		// the slot wait and the solve honor it.
		if err := s.admit(cancel); err != nil {
			return nil, err
		}
		defer func() { <-s.sem }()
		opts.Cancel = cancel
		return s.run(g, digest, req.Algo, req.Engine, opts)
	})
	if err != nil {
		return nil, err
	}
	if !hit {
		// Cold solves only: hits cost microseconds and would bury the
		// engine-latency signal /metrics exists to expose.
		s.observeSolve(req.Engine, cached.ElapsedMS)
	}
	// Copy before customizing: the cache entry is shared across requests.
	resp := cached.SolveResponse
	resp.Cached = hit
	if hit {
		resp.ElapsedMS = 0
	}
	if req.Members {
		resp.Members = graph.PackedMembers(cached.set)
	}
	// Epoch is per-request, not per-cache-entry: a mutate-and-revert
	// sequence can bring a later epoch back to a cached digest, and the
	// response must report the epoch the caller actually addressed.
	resp.Epoch = epoch
	return &resp, nil
}

// handleMutate applies one epoch batch to a mutable preloaded graph. The
// write lock spans apply + commit + digest + WAL append so concurrent
// solves always see a consistent (graph, digest, epoch) triple and records
// land in the log in epoch order; solves already running keep their
// immutable snapshot. Cache entries under the pre-mutation digest are
// dropped. On a durable graph the 200 waits for the record's fsync — which
// happens after the lock is released, so concurrent mutates of one graph
// ride a single group-commit fsync — unless the request says sync=false.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	p, ok := s.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q (see /v1/graphs); inline-only graphs cannot be mutated", name)
		return
	}
	req, err := graphio.DecodeMutateRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	p.mu.Lock()
	if p.deleted {
		// A DELETE (or Close) won the race for the lock after the lookup.
		p.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown graph %q (see /v1/graphs)", name)
		return
	}
	if req.Epoch != nil && *req.Epoch != p.dyn.Epoch() {
		epoch := p.dyn.Epoch()
		p.mu.Unlock()
		writeError(w, http.StatusConflict, "stale epoch: graph %q is at epoch %d, request pinned %d",
			name, epoch, *req.Epoch)
		return
	}
	// The same resource bound the inline-graph path enforces: mutations
	// accumulate across requests, so without this check a client could
	// grow a preload without limit one small batch at a time.
	grows := 0
	for _, m := range req.Mutations {
		if m.Op == graphio.OpAddVertex {
			grows++
		}
	}
	if n := p.dyn.N() + grows; n > s.cfg.MaxInlineVertices {
		p.mu.Unlock()
		writeError(w, http.StatusBadRequest,
			"mutation batch would grow graph %q to n=%d, exceeding the server limit of %d vertices", name, n, s.cfg.MaxInlineVertices)
		return
	}
	for i, m := range req.Mutations {
		switch m.Op {
		case graphio.OpAddEdge:
			err = p.dyn.AddEdge(m.U, m.V)
		case graphio.OpRemoveEdge:
			err = p.dyn.RemoveEdge(m.U, m.V)
		case graphio.OpAddVertex:
			p.dyn.AddVertex()
		case graphio.OpSetWeight:
			err = p.dyn.SetWeight(m.U, m.W)
		}
		if err != nil {
			p.dyn.Discard()
			p.mu.Unlock()
			writeError(w, http.StatusBadRequest, "mutation %d: %v", i, err)
			return
		}
	}
	// The record's delta fields must be gathered before Commit consumes
	// the pending state; the record itself can only be appended after
	// Commit succeeds (a refused batch must leave no trace in the log).
	var rec *wal.Record
	log := p.log // DELETE and Close clear p.log under p.mu; the sync below runs after it
	if log != nil {
		rec = &wal.Record{Pre: p.tree.Root()}
		var grew int
		rec.Adds, rec.Rems, rec.Weights, grew = p.dyn.NormalizedPending()
		rec.Grew = grew
	}
	delta, err := p.dyn.Commit()
	if err != nil {
		p.dyn.Discard()
		p.mu.Unlock()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Weight-only batches leave the topology (and so the digest) alone:
	// no re-hash, and the cache keeps its entries — they are keyed on
	// (digest, weights-hash) and remain exactly right. Otherwise only the
	// digest tree's blocks holding touched vertices are re-hashed.
	if delta.Next != delta.Prev {
		oldDigest := p.digest
		root := p.tree.Update(delta.Next, delta.Touched)
		p.digest = hex.EncodeToString(root[:])
		s.cache.invalidateDigest(oldDigest)
	}
	if rec != nil {
		rec.Epoch = delta.Epoch
		rec.Post = p.tree.Root()
		if aerr := log.Append(rec, false); aerr != nil {
			// The engine advanced but the log did not: this epoch (and any
			// after it) cannot survive a restart. The log is now poisoned
			// (every further append fails), so the graph is effectively
			// read-only until an operator restarts onto the durable state.
			p.mu.Unlock()
			writeError(w, http.StatusInternalServerError, "graph %q: epoch %d committed in memory but could not be logged: %v",
				name, delta.Epoch, aerr)
			return
		}
		if log.ShouldSnapshot() {
			// Snapshot under the write lock: (graph, costs, epoch) must be
			// the triple just committed. A failure still answers 200: the
			// log chain is intact, so recovery only replays more. The log
			// counts it, and /metrics exports the count as
			// kwmds_wal_snapshot_failures_total.
			_ = log.WriteSnapshot(p.dyn.Graph(), p.dyn.Costs(), delta.Epoch)
		}
	}
	resp := graphio.MutateResponse{
		Name:    name,
		Epoch:   delta.Epoch,
		Digest:  p.digest,
		N:       delta.Next.N(),
		M:       delta.Next.M(),
		Touched: len(delta.Touched),
	}
	p.mu.Unlock()

	if rec != nil && (req.Sync == nil || *req.Sync) {
		if serr := log.Sync(); serr != nil {
			writeError(w, http.StatusInternalServerError, "graph %q: epoch %d committed but not durable: %v",
				name, resp.Epoch, serr)
			return
		}
		resp.Durable = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDelete removes a preloaded graph and releases its lifecycle state:
// the WAL (flushed and closed; its files stay on disk for a later restart)
// and the mmapped snapshot (owner reference dropped — the pages unmap once
// the last in-flight solve releases its pin). New requests see 404 as soon
// as the registry entry is gone.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.gmu.Lock()
	p, ok := s.graphs[name]
	if ok {
		delete(s.graphs, name)
		for i, n := range s.names {
			if n == name {
				s.names = append(s.names[:i], s.names[i+1:]...)
				break
			}
		}
	}
	s.gmu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q (see /v1/graphs)", name)
		return
	}
	// Wait out any in-flight mutate so the log closes after its append;
	// one still waiting for the lock then finds the graph deleted.
	p.mu.Lock()
	epoch := p.dyn.Epoch()
	mapped := p.release()
	p.mu.Unlock()
	if mapped != nil {
		mapped.Close()
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "epoch": epoch, "deleted": true})
}

// solveResult is what the cache holds for one configuration: the response
// without a member list, and the set as packed bits, 64 vertices a word
// (nil for "frac"). solve lists the members only for a request that asks.
type solveResult struct {
	graphio.SolveResponse
	set []uint64
}

// run executes one pipeline configuration.
func (s *Server) run(g *graph.Graph, digest, algo, engine string, opts kwmds.Options) (*solveResult, error) {
	out := &solveResult{SolveResponse: graphio.SolveResponse{Digest: digest, Algo: algo, Engine: engine, N: g.N(), M: g.M()}}
	resp := &out.SolveResponse
	start := time.Now()
	switch algo {
	case "frac":
		res, err := kwmds.FractionalDominatingSet(g, opts)
		if err != nil {
			return nil, err
		}
		resp.K = res.K
		resp.LPObjective = res.Objective
		resp.Bound = res.Bound
		resp.Rounds, resp.Messages, resp.Bits = res.Rounds, res.Messages, res.Bits
	case "kwcds":
		res, err := kwmds.ConnectedDominatingSet(g, opts)
		if err != nil {
			return nil, err
		}
		fillResult(out, &kwmds.PackedResult{
			Set: graph.PackSet(res.InDS), Size: res.Size, WeightedCost: res.WeightedCost, LPObjective: res.LPObjective, K: res.K,
			Rounds: res.Rounds, Messages: res.Messages, Bits: res.Bits, JoinedRandom: res.JoinedRandom, JoinedFixup: res.JoinedFixup,
		})
		resp.Connectors = res.Connectors
	default: // kw, kw2 (KnownDelta already folded into opts)
		// The packed entry point hands over only the set's words and the
		// scalars: no per-vertex []bool or x-vector is built for a cache
		// entry that would drop them.
		res, err := kwmds.DominatingSetPacked(g, opts)
		if err != nil {
			return nil, err
		}
		fillResult(out, res)
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return out, nil
}

// fillResult copies res into out; out keeps res.Set as it is.
func fillResult(out *solveResult, res *kwmds.PackedResult) {
	resp := &out.SolveResponse
	resp.K = res.K
	resp.Size = res.Size
	resp.WeightedCost = res.WeightedCost
	resp.LPObjective = res.LPObjective
	resp.Rounds, resp.Messages, resp.Bits = res.Rounds, res.Messages, res.Bits
	resp.JoinedRandom, resp.JoinedFixup = res.JoinedRandom, res.JoinedFixup
	out.set = res.Set
}

// cacheKey folds the topology digest and every result-affecting option into
// one string. The Members flag is deliberately excluded: the cached value
// carries the set as packed bits, and solve lists it per request. The
// engine is included not because the sets differ (they are bit-identical)
// but because the responses do: only "sim" carries round/message
// statistics.
func cacheKey(digest string, req *graphio.SolveRequest, opts kwmds.Options) string {
	variant := req.Variant
	if variant == "" {
		variant = "ln"
	}
	return fmt.Sprintf("%s|%s|%d|%d|%s|%s|%s",
		digest, req.Algo, opts.K, opts.Seed, variant, req.Engine, weightsKey(opts.Weights))
}

// weightsKey hashes the cost vector (FNV-64 over the IEEE bits); "-" for
// unweighted runs.
func weightsKey(ws []float64) string {
	if ws == nil {
		return "-"
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
		h.Write(buf[:])
	}
	return fmt.Sprintf("w%016x", h.Sum64())
}

type graphInfo struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	MaxDeg int    `json:"max_degree"`
	Digest string `json:"digest"`
	Epoch  int64  `json:"epoch"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.gmu.RLock()
	names := append([]string(nil), s.names...)
	ps := make([]*preloaded, len(names))
	for i, name := range names {
		ps[i] = s.graphs[name]
	}
	s.gmu.RUnlock()
	infos := make([]graphInfo, 0, len(names))
	for i, name := range names {
		g, digest, epoch, _ := ps[i].snapshot()
		infos = append(infos, graphInfo{Name: name, N: g.N(), M: g.M(), MaxDeg: g.MaxDegree(), Digest: digest, Epoch: epoch})
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
}

// Stats reports the result cache's entry count and hit/miss totals — the
// same counters /healthz serves, exposed directly so in-process drivers
// (the kwbench http-serve driver) can report hit rates without scraping
// the health endpoint.
func (s *Server) Stats() (entries int, hits, misses int64) {
	return s.cache.stats()
}

// QueueStats reports the admission-control counters: solves shed with 429
// (lifetime) and the current number of computations inside the admission
// queue. Also served by /healthz and /metrics.
func (s *Server) QueueStats() (sheds, queueDepth int64) {
	return s.sheds.Load(), s.queued.Load()
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	entries, hits, misses := s.cache.stats()
	s.gmu.RLock()
	graphs := len(s.graphs)
	s.gmu.RUnlock()
	sheds, depth := s.QueueStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"workers":       s.cfg.Workers,
		"graphs":        graphs,
		"cache_entries": entries,
		"cache_hits":    hits,
		"cache_misses":  misses,
		"max_queue":     s.cfg.MaxQueue,
		"queue_depth":   depth,
		"sheds":         sheds,
	})
}
