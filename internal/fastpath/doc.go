// Package fastpath is the production execution backend of the
// Kuhn–Wattenhofer pipeline: Algorithms 2 and 3, the weighted variant, and
// both randomized-rounding variants executed directly over the graph's flat
// CSR arrays.
//
// It exists next to two other backends with one contract between them —
// for equal inputs all three produce bit-identical x-vectors and
// dominating sets:
//
//   - internal/sim + internal/core programs: the message-passing execution.
//     Measures rounds/messages/bits; the backend to study the *distributed*
//     behavior.
//   - internal/core references: sequential line-by-line transcriptions of
//     the paper's pseudocode, optionally carrying the proofs' z-account
//     instrumentation (core.Instrument). The oracle the other two are
//     tested against.
//   - this package: the backend that serves traffic. No instrumentation,
//     no message accounting — just the answer, as fast as possible.
//
// # How it is fast
//
// Frontier-driven: the references rescan all n vertices in each of the
// O(k²) inner iterations. The solver instead tracks the white set and the
// support set (vertices whose closed neighborhood still contains a white
// vertex) in internal/bitset sets, maintains the dynamic degree δ̃
// incrementally (a vertex's δ̃ is decremented once for each neighbor that
// turns gray — O(n+m) total over the whole run), and re-evaluates the
// covering condition only for vertices whose neighborhood x-values actually
// changed. Iterations after every vertex is covered are skipped outright —
// the references prove (and the determinism tests confirm) they cannot
// change x.
//
// Phase-parallel: within an inner iteration every vertex's update depends
// only on the previous phase's state, so each phase runs over chunked
// word-ranges of the frontier bitsets on a small worker pool started once
// per solve. Determinism does not depend on the worker count: per-vertex
// results are written to disjoint slots, shared marking uses commutative
// atomic word-ORs, and per-chunk result lists are merged in chunk order.
// Only integer and idempotent operations cross chunk boundaries; every
// floating-point sum (the covering test) is recomputed per vertex in the
// same self-then-sorted-neighbors order the references use, which is what
// keeps the output bit-identical.
//
// Zero steady-state allocations: a Solver owns every scratch buffer and
// re-slices them across solves; the package-level Acquire/Release pool
// (keyed by vertex-capacity class) lets servers reuse whole solvers across
// requests. After warm-up a Solve performs no heap allocation — returned
// slices alias solver storage and must be copied by callers that outlive
// the solver's next use (the kwmds facade does exactly that).
//
// LP memo: the LP stage is a deterministic function of the graph, the
// algorithm, k and (weighted) the costs; only rounding reads the seed. A
// Solver remembers its last completed LP stage — its own x buffer is the
// memo, one entry — and Solve, Fractional and Resolve skip the stage when
// they ask for the same configuration again: the same *graph.Graph
// pointer, the same algorithm and k, and for AlgWeighted costs bit-equal
// to the solver's own copy (never slice identity: a caller may rewrite its
// cost slice in place). The pointer key is sound because the solver holds
// the graph it keys on, so no new graph can take the address while it
// does. The memo is dropped by any other graph and by a run that was
// canceled (x is partial). Because x is the memo, Result.X and
// Fractional's slice are read-only views: a caller writing into them would
// corrupt the next hit.
//
// Delta-aware: Resolve consumes a dyngraph.Delta (an epoch-batched
// mutation of the solver's previous graph) and repairs the cached static
// δ⁽¹⁾/δ⁽²⁾ tables from the touched neighborhoods instead of recomputing
// them, falling back to a full solve when churn exceeds the repair
// threshold. Either way the output is bit-identical to a cold solve on
// the new snapshot — the same three-backend contract, extended to the
// dynamic-graph engine and enforced by internal/dyngraph's differential
// churn harness and mutation fuzzer.
package fastpath
