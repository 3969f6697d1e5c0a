// Package fastpath is the production execution backend of the
// Kuhn–Wattenhofer pipeline: Algorithms 2 and 3, the weighted variant, and
// both randomized-rounding variants executed directly over the graph's
// CSR arrays. The dense kernels (a full LP stage, δ⁽¹⁾/δ⁽²⁾) read a flat
// CSR, which a paged snapshot (a dyngraph epoch) builds once on demand;
// the per-epoch path — adopt, the δ⁽¹⁾/δ⁽²⁾ repair, the LP replay and the
// rounding — reads a paged snapshot through its page table, one block or
// one neighbor list at a time, so a served epoch never flattens one.
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
// Parallel sweeps: a phase forks only when it is a sweep. It writes
// nothing outside its own range of words (or of their vertices), emits no
// list, and reads only what an earlier phase finished. One fork-join
// helper (sweep) then cuts the word range into one contiguous span per
// worker, runs the spans side by side and sums what they return (the
// rounding's join counts), with no merge and no atomics. Nine phases
// qualify: δ⁽¹⁾, δ⁽²⁾, the rounding's flip and fix-up, and Algorithm 3's
// activity test, a(v) count and γ⁽¹⁾/γ⁽²⁾ recomputations. The phases that
// emit lists (the x raises and the covering rechecks) or mark
// neighborhoods across ranges (the dirty marks and the gray transition)
// run on the calling goroutine in ascending word order, so their lists
// come out sorted and their marks are plain ORs. Algorithm 2 and the
// weighted variant use only those, so their LP stage never forks.
// Options.Workers sets the span count; with one span a sweep runs inline
// and starts no goroutine. Every floating-point sum (the covering test) is
// computed per vertex in the same self-then-sorted-neighbors order the
// references use, which is what keeps the output bit-identical.
//
// Rounding kernel: Algorithm 1 is two passes over the words of the flipped
// bitset. The flip compares the 53 bits m of each vertex's draw — the
// first value of its per-node stream keyed by vertex id, u = m/2⁵³ —
// against the vertex's threshold ⌈x·Scale(δ⁽²⁾)·2⁵³⌉, capped at 2⁵³, and
// sets the vertex's bit from the comparison. Both u and the scaling by 2⁵³
// are exact, so m < threshold exactly when u < x·Scale: there is no clamp
// and no branch, p ≥ 1 always joins and p = 0 never does, as the
// references' min{1, p} decides. The stream mix is split in two halves
// (stats.StreamKey, stats.StreamHalf): the seed's is computed once per
// solve and the vertex's is read from a table the solver fills as its n
// grows, so a draw is one SplitMix64, the PCG seeding and one PCG step.
// The draws come four consecutive vertices at a time
// (stats.StreamKey.Bits53x4), so the core overlaps their four independent
// multiply chains. The thresholds are kept with the LP memo: built once
// per LP result and variant (a sweep), reused by every memo hit, patched
// where the repair changes δ⁽²⁾ and where a replay rewrites x, and rebuilt
// after a full stage, a variant change or a standalone Round over the
// caller's x. The fix-up walks only the unflipped bits of each word
// (bits.TrailingZeros64 over the complement), in two passes. The first
// ORs, for each such vertex with at least four neighbors, the flip bits of
// its first four into the word's probed mask, with no branch on what it
// finds; the second scans the rest of the list, until the first flipped
// neighbor, only for the vertices the probe left (about a tenth of the
// unflipped ones on udg-10k at k = 3) and those of degree below four. A vertex with
// no flipped neighbor joins; the joins are counted per word, and the
// word's final set, flipped | joined, is stored into the packed output
// (Result.Set, one bit per vertex — no per-vertex slice is written). A
// memo-hit solve, which runs only this kernel and reads Σx (Result.
// Objective) from beside the memo, is what every distinct-seed request on
// a served graph pays.
//
// Zero steady-state allocations: a Solver owns every scratch buffer and
// re-slices them across solves; the package-level Acquire/Release pool
// lets servers reuse whole solvers across requests. After warm-up a Solve
// performs no heap allocation — a replayed one included — and returned
// slices alias solver storage and must be copied by callers that outlive
// the solver's next use. The kwmds facade copies only what its entry
// point returns: DominatingSetPacked the set's n/64 words, DominatingSet
// the set unpacked into one bool per vertex and the x-vector.
//
// The pool keeps, per vertex-capacity class, a last-in-first-out list of
// at most GOMAXPROCS idle solvers, so the next request gets the solver that
// answered the last one. Idle solvers, each with the graph it keys on,
// stay until reused; a full class drops its least recently released one.
//
// LP memo: the LP stage is a deterministic function of the graph, the
// algorithm, k and (weighted) the costs; only rounding reads the seed. A
// Solver remembers its last completed LP stage — its own x buffer is the
// memo, one entry — and Solve and Fractional skip the stage when they ask
// for the same configuration again: the same *graph.Graph pointer, the
// same algorithm and k, and for AlgWeighted costs bit-equal to the
// solver's own copy (never slice identity: a caller may rewrite its cost
// slice in place). The pointer key is sound because the solver holds the
// graph it keys on, so no new graph can take the address while it does.
// The memo follows the solver to a graph derived from its own (below) as
// the base of a replay; any other graph drops it, and so does a run that
// was canceled (x is partial). Because x is the memo, Result.X and
// Fractional's slice are read-only views: a caller writing into them would
// corrupt the next hit.
//
// Lineage and replay: a graph committed by internal/dyngraph with an
// unchanged vertex count knows the graph it was derived from and the
// vertices whose adjacency changed (graph.Lineage). A solver holding that
// parent repairs its static δ⁽¹⁾/δ⁽²⁾ tables on the distance-2 rings of the
// touched vertices instead of recomputing them, and an Algorithm 3 LP stage
// of the memo's k replays the parent's stage. Every full Algorithm 3 stage
// logs its trajectory, and the first replay from it builds the per-vertex
// record (trajectory.go): the inner iteration a vertex turned gray in, and
// one event per inner iteration it was active (its a⁽¹⁾ there, from which
// its x follows) and per outer boundary it was in the support (its γ⁽²⁾),
// in one span of an arena. A solver that only ever hits its memo never
// builds the spans or the arena. The replay takes the
// recorded events wherever a vertex's inputs agree with the recorded run's,
// and recomputes with the full stage's arithmetic only on a frontier that
// spreads one hop per phase from the touched vertices (replay.go). The new
// run's state is never materialized over n: outside the difference sets
// (the vertices whose x, gray state, γ⁽²⁾, activity or a(v) differ) it is a
// lookup over a vertex's own events, and the sets themselves are bitsets
// with member lists, built, walked and emptied in O(frontier). At its end
// the replay rewrites only the spans whose events changed — in place, or
// moved to the arena's end, which is compacted once it fills — and patches
// s.x, the parent's final x, where the new x differs, so the next epoch
// replays from the rewritten record. Algorithm 3 is constant-round
// (Theorem 5), so the frontier stays local, and a replay costs its
// frontier, not n. Above a churn threshold the derived graph is solved as
// a new one, and the LP stages of Algorithm 2 and the weighted variant,
// whose thresholds read the global ∆ and c_max, always run in full. Either
// way the output is bit-identical to a cold solve on the new snapshot —
// the same three-backend contract, extended to the dynamic-graph engine
// and enforced by internal/dyngraph's differential churn harness and
// mutation fuzzer.
package fastpath
