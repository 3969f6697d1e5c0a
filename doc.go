// Package kwmds is a production-quality Go implementation of
//
//	Kuhn & Wattenhofer, "Constant-Time Distributed Dominating Set
//	Approximation", PODC 2003 / Distributed Computing 17:303-310 (2005),
//
// the first distributed algorithm to compute a non-trivial minimum
// dominating set approximation in a constant number of communication
// rounds: for any parameter k it produces a dominating set of expected size
// O(k·∆^{2/k}·log ∆)·|DS_OPT| in O(k²) rounds, using messages of O(log ∆)
// bits.
//
// The pipeline has two stages, both run on a built-in synchronous
// message-passing simulator that measures rounds, messages and bits. The
// simulator is a round-driven scheduler: a fixed worker pool sweeps every
// node's resumable step function once per round, delivering messages
// through preallocated per-edge buffers, so simulated runs scale to
// hundreds of thousands of nodes while staying bit-for-bit deterministic
// for a given seed. The stages:
//
//  1. LP stage — a distributed k(∆+1)^{2/k}-approximation of the fractional
//     dominating set LP (Algorithm 2 when ∆ is known network-wide,
//     Algorithm 3 otherwise);
//  2. rounding stage — distributed randomized rounding with probability
//     p_i = min{1, x_i·ln(δ⁽²⁾_i+1)} plus a one-round fix-up (Algorithm 1).
//
// Quick start:
//
//	g, err := kwmds.UnitDisk(500, 0.08, 42) // an ad-hoc radio network
//	if err != nil { ... }
//	res, err := kwmds.DominatingSet(g, kwmds.Options{Seed: 7})
//	if err != nil { ... }
//	fmt.Printf("cluster heads: %d of %d nodes in %d rounds\n",
//	    res.Size, g.N(), res.Rounds)
//
// The package also exposes the fractional stage alone
// (FractionalDominatingSet), the answer packed into words for callers that
// keep only the set and its scalars (DominatingSetPacked), the weighted
// variant (Options.Weights), the ln−lnln rounding variant
// (Options.Variant), and graph construction, generation and I/O helpers.
// Options are validated up front: every facade entry point rejects
// malformed input (negative or oversized K, a weight vector of the wrong
// length or with non-finite entries, an unknown rounding variant) with an
// error matching ErrInvalidOptions, so untrusted request bodies can never
// panic the pipeline.
//
// # Execution backends
//
// Every algorithm exists in three executions bound by one contract — for
// equal inputs (graph, k, seed, variant) all three produce bit-identical
// x-vectors and dominating sets:
//
//   - Simulation (the default): the message-passing programs on the
//     round-driven scheduler. The only backend that measures rounds,
//     messages and bits — choose it to study the distributed behavior.
//   - Reference (internal/core Reference*): sequential line-by-line
//     transcriptions of the paper's pseudocode. The oracle the other two
//     backends are differential-tested against; with core.Instrument they
//     additionally record the proofs' z-account invariants (skipped by
//     default since the bookkeeping costs more than the algorithm).
//   - Fastpath (Options.Sequential, internal/fastpath): the production
//     solver — frontier-driven over the graph's flat CSR arrays, its
//     dense sweeps forked over Options.SolverWorkers and the LP phases
//     that emit lists on the calling goroutine, zero steady-state
//     allocations via pooled solvers. Selected by Options.Sequential,
//     by the serve subsystem for every cold solve (request engine
//     "fast", the default). Round and message statistics are zero on
//     this backend.
//
// The contract is enforced by cross-backend determinism tests (multiple
// workloads × algorithms × seeds × worker counts, under the race
// detector) and a differential fuzzer with a checked-in corpus
// (internal/fastpath). BENCH_kwbench.json records the timings, each row
// with the host it ran on: on a 2-vCPU host at GOMAXPROCS 2 the fastpath
// runs the full pipeline on a 100k-vertex unit-disk graph at p50 35.1 ms,
// its sweeps forked over two workers (solve-cold-udg100k), and serves
// uncached 10k-vertex solves at p50 1.4 ms under eight concurrent clients
// (serve-uncached-udg10k).
//
// The `kwmds serve` subcommand (internal/server) runs the pipelines as a
// long-lived HTTP JSON service: clients POST a graph (inline edge list or a
// reference to a preloaded topology) plus any pipeline configuration to
// /v1/solve, requests run through a bounded worker pool — the simulation
// engine is re-entrant, so many pipelines execute concurrently in one
// process — and results are cached in an LRU keyed on (graph digest,
// options), making repeated queries on an unchanged topology O(1).
// Preloaded topologies are mutable: POST /v1/graphs/{name}/mutate applies
// an atomic epoch batch of edge/vertex/weight mutations through the
// dynamic-graph engine (internal/dyngraph), invalidating the cache entries
// the old topology held; solve requests may pin an epoch for optimistic
// concurrency. See the README for the JSON schema and the serve-* rows of
// BENCH_kwbench.json for throughput and latency under load.
//
// The `kwmds bench` subcommand (internal/kwbench) is the measurement
// layer: declarative scenario specs (JSON/TOML files under scenarios/)
// drive closed- or open-loop load through any backend — in-process
// fastpath or simulation, or the HTTP service — with warmup/measure
// phases, zipfian or uniform graph selection, dynamic-graph mobility
// replays (including rebuild-vs-mutation-API churn modes over
// internal/dyngraph) and a sim-vs-fast cross-check mode, exporting
// HDR-histogram latency percentiles, throughput and allocation counts
// into the unified BENCH_kwbench.json.
//
// Architecture notes live in docs/ARCHITECTURE.md (layers, data flow, the
// three-backend contract) and docs/BENCHMARKS.md (benchmark methodology
// and the schema of every BENCH_*.json artifact). EXPERIMENTS.md holds the
// reproduction tables of the paper's quantitative claims, as printed by
// cmd/experiments.
package kwmds
