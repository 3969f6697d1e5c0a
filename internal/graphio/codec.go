package graphio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"kwmds/internal/graph"
)

// This file defines the wire format of the serve subsystem (POST /v1/solve).
// It lives in graphio rather than internal/server so the load-generator
// bench and any future clients share one codec with the handlers.

// SolveRequest is the JSON body of a solve call. Exactly one of Graph or
// GraphRef selects the topology.
type SolveRequest struct {
	// Graph is an inline topology (a JSONGraph).
	// It stays raw at decode time so the edge-list materialization —
	// the expensive part of a request — can run under the server's
	// worker pool (BuildGraph) instead of on the request goroutine.
	Graph json.RawMessage `json:"graph,omitempty"`
	// GraphRef names a graph preloaded into the server.
	GraphRef string `json:"graph_ref,omitempty"`
	// Algo is the pipeline to run: kw | kw2 | kwcds | frac (default kw).
	Algo string `json:"algo,omitempty"`
	// K is the trade-off parameter (0 = k = log ∆).
	K int `json:"k,omitempty"`
	// Seed drives the rounding stage's coin flips.
	Seed int64 `json:"seed,omitempty"`
	// Variant is the rounding scaling: "ln" (default) | "ln-lnln".
	Variant string `json:"variant,omitempty"`
	// Weights, when non-empty, runs the weighted variant (len must equal n).
	Weights []float64 `json:"weights,omitempty"`
	// Engine selects the execution backend: "fast" (default — the
	// internal/fastpath flat-CSR solver; rounds/messages/bits are 0 in the
	// response) or "sim" (the message-passing simulation, which costs an
	// order of magnitude more compute but reports the distributed-round
	// statistics). Both produce bit-identical sets.
	Engine string `json:"engine,omitempty"`
	// Sequential is the pre-engine spelling of Engine = "fast", kept for
	// request compatibility.
	Sequential bool `json:"sequential,omitempty"`
	// Members asks for the chosen vertex ids in the response (off by
	// default: on large graphs the id list dominates the payload).
	Members bool `json:"members,omitempty"`
	// Epoch, when set, pins the request to one epoch of a mutable preloaded
	// graph: if the graph has been mutated past it (or not that far yet)
	// the server answers 409 instead of silently solving a different
	// topology. Only valid with GraphRef.
	Epoch *int64 `json:"epoch,omitempty"`
	// UseGraphWeights runs the weighted variant with the preloaded graph's
	// current (mutable) cost vector instead of an inline Weights list.
	// Requires GraphRef, a graph that has received at least one set_weight
	// mutation, and no inline Weights.
	UseGraphWeights bool `json:"use_graph_weights,omitempty"`
}

// SolveResponse is the JSON body of a successful solve call.
type SolveResponse struct {
	// Digest identifies the topology that was solved (the hex topology
	// digest, see Digest); requests carrying an identical topology hit the
	// same cache entry.
	Digest string `json:"digest"`
	Algo   string `json:"algo"`
	// Engine is the backend that computed the result ("fast" or "sim").
	Engine string `json:"engine"`
	K      int    `json:"k"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	// Size is |DS| (for algo=frac it is 0 and LPObjective carries the
	// result).
	Size         int     `json:"size"`
	WeightedCost float64 `json:"weighted_cost,omitempty"`
	LPObjective  float64 `json:"lp_objective"`
	Bound        float64 `json:"bound,omitempty"`
	Rounds       int     `json:"rounds"`
	Messages     int64   `json:"messages"`
	Bits         int64   `json:"bits"`
	JoinedRandom int     `json:"joined_random,omitempty"`
	JoinedFixup  int     `json:"joined_fixup,omitempty"`
	Connectors   int     `json:"connectors,omitempty"`
	Members      []int   `json:"members,omitempty"`
	// Cached reports whether the result came from the server's LRU cache.
	Cached bool `json:"cached"`
	// ElapsedMS is the in-process compute time (0 for cache hits).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Epoch is the mutation epoch of the preloaded graph that was solved
	// (0 for inline graphs and never-mutated preloads).
	Epoch int64 `json:"epoch,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx serve reply. Code, when
// present, is a stable machine-readable discriminator for errors a client is
// expected to branch on (retry after a shed); the human-readable Error text
// is free to change.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// CodeOverloaded is the ErrorResponse.Code of a solve shed by admission
// control (queue full or queue timeout). Retryable after the Retry-After
// delay; the computation never started.
const CodeOverloaded = "overloaded"

// DecodeSolveRequest parses and structurally validates a solve body: valid
// JSON with no unknown fields, exactly one topology source, and a known
// algo/variant. Graph construction and option validation happen later (the
// facade owns those rules); this layer only rejects malformed envelopes.
func DecodeSolveRequest(r io.Reader) (*SolveRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("graphio: solve request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("graphio: solve request: trailing data after JSON body")
	}
	if string(req.Graph) == "null" {
		req.Graph = nil
	}
	if (len(req.Graph) == 0) == (req.GraphRef == "") {
		return nil, fmt.Errorf("graphio: solve request: exactly one of \"graph\" and \"graph_ref\" is required")
	}
	if req.Algo == "" {
		req.Algo = "kw"
	}
	switch req.Algo {
	case "kw", "kw2", "kwcds", "frac":
	default:
		return nil, fmt.Errorf("graphio: solve request: unknown algo %q (want kw|kw2|kwcds|frac)", req.Algo)
	}
	switch req.Variant {
	case "", "ln", "ln-lnln":
	default:
		return nil, fmt.Errorf("graphio: solve request: unknown variant %q (want ln|ln-lnln)", req.Variant)
	}
	switch req.Engine {
	case "":
		req.Engine = "fast"
	case "fast":
	case "sim":
		if req.Sequential {
			return nil, fmt.Errorf("graphio: solve request: \"sequential\": true conflicts with \"engine\": \"sim\"")
		}
	default:
		return nil, fmt.Errorf("graphio: solve request: unknown engine %q (want fast|sim)", req.Engine)
	}
	// The weighted variant is defined only for the unknown-∆ LP stage
	// (the facade dispatches on Weights before KnownDelta); accepting the
	// combination would mislabel a weighted run as kw2.
	if req.Algo == "kw2" && (len(req.Weights) > 0 || req.UseGraphWeights) {
		return nil, fmt.Errorf("graphio: solve request: weights are not supported with algo \"kw2\" (use kw)")
	}
	if req.Epoch != nil && req.GraphRef == "" {
		return nil, fmt.Errorf("graphio: solve request: \"epoch\" requires \"graph_ref\" (inline graphs have no mutation epoch)")
	}
	if req.UseGraphWeights {
		if req.GraphRef == "" {
			return nil, fmt.Errorf("graphio: solve request: \"use_graph_weights\" requires \"graph_ref\"")
		}
		if len(req.Weights) > 0 {
			return nil, fmt.Errorf("graphio: solve request: \"use_graph_weights\" conflicts with inline \"weights\"")
		}
	}
	return &req, nil
}

// Mutation ops accepted by POST /v1/graphs/{name}/mutate.
const (
	OpAddEdge    = "add_edge"
	OpRemoveEdge = "remove_edge"
	OpAddVertex  = "add_vertex"
	OpSetWeight  = "set_weight"
)

// Mutation is one entry of a mutate call's batch.
type Mutation struct {
	// Op is add_edge | remove_edge | add_vertex | set_weight.
	Op string `json:"op"`
	// U and V are the edge endpoints (add_edge, remove_edge) or U the
	// target vertex (set_weight).
	U int `json:"u,omitempty"`
	V int `json:"v,omitempty"`
	// W is the new weight (set_weight only; finite, ≥ 1).
	W float64 `json:"w,omitempty"`
}

// MutateRequest is the JSON body of POST /v1/graphs/{name}/mutate. The
// batch is applied atomically as one epoch: either every mutation commits
// or none does.
type MutateRequest struct {
	// Epoch, when set, makes the batch conditional: it applies only if the
	// graph is still at that epoch (optimistic concurrency; 409 otherwise).
	Epoch *int64 `json:"epoch,omitempty"`
	// Sync, on a durable (-data-dir) graph, controls when the call returns:
	// unset or true, only after the epoch's WAL record is fsynced; false
	// opts out explicitly — the record is buffered and a crash before the
	// next sync loses the epoch (the response says so via "durable": false).
	// Ignored (and harmless) on non-durable graphs.
	Sync *bool `json:"sync,omitempty"`
	// Mutations is the batch, applied in order. At least one is required.
	Mutations []Mutation `json:"mutations"`
}

// MutateResponse is the JSON body of a successful mutate call.
type MutateResponse struct {
	Name string `json:"name"`
	// Epoch is the graph's epoch after the commit.
	Epoch int64 `json:"epoch"`
	// Digest identifies the new topology; cache entries for the previous
	// digest have been dropped.
	Digest string `json:"digest"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	// Touched is the number of vertices whose adjacency changed.
	Touched int `json:"touched"`
	// Durable reports that the epoch's WAL record was fsynced before this
	// response (always false for graphs served without a data dir).
	Durable bool `json:"durable,omitempty"`
}

// DecodeMutateRequest parses and structurally validates a mutate body:
// strict JSON, at least one mutation, known ops with the right fields for
// each. Graph-level validation (range checks, duplicate edges) happens in
// the dyngraph engine.
func DecodeMutateRequest(r io.Reader) (*MutateRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req MutateRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("graphio: mutate request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("graphio: mutate request: trailing data after JSON body")
	}
	if len(req.Mutations) == 0 {
		return nil, fmt.Errorf("graphio: mutate request: empty mutation batch")
	}
	for i, m := range req.Mutations {
		switch m.Op {
		case OpAddEdge, OpRemoveEdge:
			if m.W != 0 {
				return nil, fmt.Errorf("graphio: mutate request: mutation %d: %s takes no \"w\"", i, m.Op)
			}
		case OpSetWeight:
			if m.V != 0 {
				return nil, fmt.Errorf("graphio: mutate request: mutation %d: set_weight takes \"u\" and \"w\", not \"v\"", i)
			}
		case OpAddVertex:
			if m.U != 0 || m.V != 0 || m.W != 0 {
				return nil, fmt.Errorf("graphio: mutate request: mutation %d: add_vertex takes no fields", i)
			}
		case "":
			return nil, fmt.Errorf("graphio: mutate request: mutation %d: missing op", i)
		default:
			return nil, fmt.Errorf("graphio: mutate request: mutation %d: unknown op %q (want %s|%s|%s|%s)",
				i, m.Op, OpAddEdge, OpRemoveEdge, OpAddVertex, OpSetWeight)
		}
	}
	return &req, nil
}

// BuildGraph materializes the request's inline topology. maxVertices caps
// the declared vertex count before the O(n) CSR allocation: without it a
// 40-byte body declaring n=2e9 would OOM the process. The edge-list decode
// itself is bounded by the body-size limit upstream.
func (req *SolveRequest) BuildGraph(maxVertices int) (*graph.Graph, error) {
	if len(req.Graph) == 0 {
		return nil, fmt.Errorf("graphio: solve request: no inline graph")
	}
	dec := json.NewDecoder(bytes.NewReader(req.Graph))
	dec.DisallowUnknownFields()
	var jg JSONGraph
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("graphio: solve request: graph: %w", err)
	}
	if maxVertices > 0 && jg.N > maxVertices {
		return nil, fmt.Errorf("graphio: solve request: inline graph n=%d exceeds the server limit of %d vertices", jg.N, maxVertices)
	}
	g, err := graph.New(jg.N, jg.Edges)
	if err != nil {
		return nil, fmt.Errorf("graphio: solve request: %w", err)
	}
	return g, nil
}
