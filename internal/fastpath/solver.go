package fastpath

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"kwmds/internal/bitset"
	"kwmds/internal/core"
	"kwmds/internal/graph"
	"kwmds/internal/rounding"
	"kwmds/internal/stats"
)

// Algorithm selects the LP stage.
type Algorithm int8

const (
	// Alg3 is Algorithm 3: no global knowledge, thresholds from the local
	// 2-hop maximum dynamic degree γ⁽²⁾ (the facade default).
	Alg3 Algorithm = iota
	// Alg2 is Algorithm 2: every node knows the global maximum degree ∆.
	Alg2
	// AlgWeighted is the weighted variant from the remark after Theorem 4
	// (requires Options.Costs).
	AlgWeighted
)

// Options configures a fastpath run.
type Options struct {
	// K is the trade-off parameter, already resolved (1..core.MaxK); the
	// facade owns the K=0 → Θ(log ∆) defaulting.
	K int
	// Algorithm selects the LP stage.
	Algorithm Algorithm
	// Costs are the per-vertex costs of AlgWeighted (ignored otherwise).
	Costs []float64
	// Seed drives the rounding stage's coin flips.
	Seed int64
	// Variant selects the rounding scaling.
	Variant rounding.Variant
	// Workers bounds the goroutines of the forked sweeps (δ⁽¹⁾, δ⁽²⁾, the
	// rounding's flip and fix-up, and Algorithm 3's activity, a(v) and
	// γ⁽¹⁾/γ⁽²⁾ phases); 0 selects GOMAXPROCS. The LP phases that emit
	// lists run on the calling goroutine whatever the count. Output is
	// bit-identical for every worker count.
	Workers int
	// Cancel, when non-nil, aborts the solve early once the channel
	// closes: Solve and Fractional return ErrCanceled at the next LP
	// iteration boundary (a few phases of latency at most).
	// The solver's buffers stay reusable — a canceled pooled solver is
	// released and reacquired as usual.
	Cancel <-chan struct{}
}

// ErrCanceled reports that a solve was abandoned because Options.Cancel
// closed before the pipeline finished.
var ErrCanceled = errors.New("fastpath: solve canceled")

// Result is the outcome of Solve or Round. All slices alias the solver's
// internal storage: they are valid until the solver's next run (or its
// Release back to the pool) and must be copied by callers that keep them.
// They are read-only views: X may be the solver's LP memo itself, which a
// later run of the same graph and LP configuration reuses as its answer.
type Result struct {
	// X is the LP stage's fractional solution (nil for standalone Round).
	X []float64
	// Set holds the dominating set members packed 64 vertices a word:
	// vertex v is bit v&63 of word v>>6, and the bits past the last
	// vertex are zero (graph.PackSet's layout).
	Set []uint64
	// Size is the number of members.
	Size int
	// JoinedRandom and JoinedFixup split the set by join reason.
	JoinedRandom int
	JoinedFixup  int
	// Objective is Σx over X, summed in vertex order once per LP result
	// (0 for standalone Round).
	Objective float64
}

// Solver executes the pipeline over reusable buffers. The zero value is
// ready to use (buffers grow on first solve); a Solver is NOT safe for
// concurrent use by multiple goroutines.
type Solver struct {
	workers int
	n       int // vertices of the current graph
	nw      int // bitset words covering n
	// cancel, when non-nil, aborts the LP drivers at the next iteration
	// boundary (see Options.Cancel). Set per solve, cleared on return.
	cancel <-chan struct{}
	// off and adj are the graph's flat CSR, which the dense kernels (the
	// full LP stage, δ⁽¹⁾/δ⁽²⁾) read. They are bound only when one runs
	// (bindCSR), since flattening a paged graph costs O(n+m); the repair,
	// the replay and the rounding read the graph itself.
	off []int32
	adj []int32

	// per-vertex state (re-sliced to n each solve)
	x      []float64
	dtil   []int32 // dynamic degree δ̃(v): white vertices in N[v]
	acnt   []int32 // Algorithm 3's a(v): active vertices in N[v] (white v)
	gamma1 []int32
	gamma2 []int32
	d1, d2 []int32  // static δ⁽¹⁾/δ⁽²⁾ (rounding + Algorithm 3 init)
	set    []uint64 // the rounding's output, one bit per vertex (Result.Set)

	// Power/log tables, exploiting that every exponentiated quantity —
	// γ⁽²⁾, a⁽¹⁾, δ⁽²⁾ — is an integer in [0, ∆+1]: instead of one
	// math.Pow/Log per vertex per iteration, each iteration fills a
	// (∆+2)-entry table with the identical math calls and the phases look
	// values up. Bit-identical by construction (same function, same
	// arguments), and it removes the transcendental calls from the
	// per-vertex hot loops entirely.
	maxDeg   int
	powTabL  []float64 // γ⁽²⁾^{ℓ/(ℓ+1)}, refilled per outer iteration
	powTabM  []float64 // a⁽¹⁾^{-m/(m+1)}, refilled per inner iteration
	scaleTab []float64 // rounding Variant.Scale(δ⁽²⁾), refilled per thr build

	// The flip's tables (rounding.go): half[v] is stats.StreamHalf(v),
	// and thr[v] is v's join threshold on a draw's 53 bits. While thrOK,
	// thr holds the thresholds of s.x over δ⁽²⁾ under thrVar, kept exact
	// through a repair and a replay by patchThr. A full LP stage clears
	// thrOK, and so does a rounding of any other x, which builds thr for
	// that x; a new graph drops the memo, so its first memo-hit rounding
	// follows a full stage.
	half   []uint64
	thr    []uint64
	thrOK  bool
	thrVar rounding.Variant

	gray    *bitset.Set // covered vertices
	support *bitset.Set // vertices with δ̃ ≥ 1 (superset of the white set)
	active  *bitset.Set // Algorithm 3's activity set, rebuilt per iteration
	dirty   *bitset.Set // vertices whose covering sum must be re-evaluated
	flipped *bitset.Set // rounding line-3 coin-flip winners

	whiteCount   int
	lastReplayed bool // observability: the last LP stage was replayed

	// Per-graph state kept across runs: the static δ⁽¹⁾/δ⁽²⁾ tables
	// (d2done) and the LP memo. Both belong to the graph of the last
	// prepare (g). The solver holds this pointer, so no new graph can take
	// its address while it keys anything; nothing keys on CSR array
	// addresses.
	g      *graph.Graph
	d2done bool
	// The LP memo: when lpValid, s.x holds the completed, uncanceled LP
	// stage of (lpAlg, lpK) over the keyed graph — or, when lpParent is
	// set, over the graph g was derived from, whose stage the next LP run
	// replays (replay.go). For AlgWeighted, costs holds the costs it ran
	// with (the solver's own copy). For Alg3, rec is the stage's
	// trajectory, kept per vertex; a replay rewrites it in place.
	lpValid  bool
	lpParent bool
	lpAlg    Algorithm
	lpK      int
	lpObj    float64 // Σx of the memo, summed once per LP result
	costs    []float64
	rec      trajectory
	// touched is g's lineage: the vertices whose adjacency lists differ
	// from the parent's (read only while lpParent is set).
	touched []int32
	rp      *replayState // the replay's scratch, allocated on first use

	// The LP phases' result lists, each ascending: the vertices whose x
	// rose in an iteration, and the white vertices its covering recheck
	// found covered.
	changed []int32
	newGray []int32
	zeroed  []int32 // applyNewGray scratch: vertices whose δ̃ hit zero

	// Threshold tables of an LP miss, refilled in place by fillPow:
	// pw = (∆+1)^{i/k} (Algorithm 2 and the weighted x-raise) and
	// wthr = [c_max(∆+1)]^{i/k} (the weighted activity thresholds).
	pw   []float64
	wthr []float64

	// per-phase parameters, set by the drivers before each phase
	curThr   float64
	curXval  float64
	curCosts []float64
	curCmax  float64
	curSeed  int64
	curX     []float64 // rounding input

	// The forked phases' method values, bound once, so that a sweep
	// performs no allocation, and the sweep's fork-join scratch.
	fnBound                     bool
	fnD1, fnD2, fnFlip, fnFixup func(w0, w1 int) int
	fnThr                       func(w0, w1 int) int
	fnA3Active, fnA3Count       func(w0, w1 int) int
	fnGamma1, fnGamma1All       func(w0, w1 int) int
	fnGamma2                    func(w0, w1 int) int
	wg                          sync.WaitGroup
	sums                        []int
}

// New returns an empty solver; buffers are allocated on first use.
func New() *Solver { return &Solver{} }

// Cap returns the solver's current vertex capacity (for pool classing).
func (s *Solver) Cap() int { return cap(s.x) }

// prepare validates the options, binds the solver to g and sizes the
// buffers. It leaves the LP state alone: the LP entry points bring it up
// to date through lp, and standalone Round never reads it — its x input
// may even alias s.x, the vector a prior Fractional on this solver
// returned.
func (s *Solver) prepare(g *graph.Graph, opt Options) error {
	if g == nil {
		return fmt.Errorf("fastpath: nil graph")
	}
	n := g.N()
	if opt.Algorithm == AlgWeighted {
		// core's check, so both backends enforce identical rules and
		// derive an identical c_max
		if _, err := core.ValidateCosts(n, opt.Costs); err != nil {
			return err
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nw := (n + 63) / 64
	if workers > nw {
		workers = nw
	}
	if workers < 1 {
		workers = 1
	}
	// δ⁽¹⁾/δ⁽²⁾ and the LP memo survive while the solver meets the same
	// graph again (a server answering many requests on one preloaded
	// topology), and carry over to a graph derived from it (the next
	// epoch of a dyngraph) as the base of a repair; any other graph drops
	// them.
	repair := s.g != g && s.adopt(g)
	s.g = g
	s.ensure(n, workers)
	s.off, s.adj = nil, nil // bound by the first dense kernel (bindCSR)
	s.maxDeg = g.MaxDegree()
	if repair {
		s.repairD2(s.touched)
	}
	return nil
}

// bindCSR binds the graph's flat CSR before a dense kernel reads it: the
// arrays themselves for a flat graph, the copy graph.Graph.CSR builds once
// for a paged one.
func (s *Solver) bindCSR() {
	if s.off == nil {
		s.off, s.adj = s.g.CSR()
	}
}

// growF64 re-slices buf to hold size entries, allocating only on growth.
func growF64(buf []float64, size int) []float64 {
	if cap(buf) < size {
		return make([]float64, size)
	}
	return buf[:size]
}

// ensure grows the buffers to hold n vertices and sets the sweep worker
// count. Growth rounds the capacity up to the next power of two so
// pooled solvers settle into stable capacity classes.
func (s *Solver) ensure(n, workers int) {
	if cap(s.x) < n {
		c := 1 << bits.Len(uint(n-1))
		s.x = make([]float64, c)
		s.dtil = make([]int32, c)
		s.acnt = make([]int32, c)
		s.gamma1 = make([]int32, c)
		s.gamma2 = make([]int32, c)
		s.d1 = make([]int32, c)
		s.d2 = make([]int32, c)
		s.set = make([]uint64, (c+63)/64)
	}
	// The flip's tables hold n entries, not the capacity class: both are
	// live heap, and half's entries depend on v alone, so only a larger n
	// than any before grows and extends them.
	if len(s.half) < n {
		s.half = append(make([]uint64, 0, n), s.half...)
		for v := len(s.half); v < n; v++ {
			s.half = append(s.half, stats.StreamHalf(int64(v)))
		}
		s.thr = make([]uint64, n)
	}
	s.x = s.x[:cap(s.x)]
	s.n = n
	s.nw = (n + 63) / 64
	if s.gray == nil {
		s.gray = bitset.New(n)
		s.support = bitset.New(n)
		s.active = bitset.New(n)
		s.dirty = bitset.New(n)
		s.flipped = bitset.New(n)
	} else {
		s.gray.Reset(n)
		s.support.Reset(n)
		s.active.Reset(n)
		s.dirty.Reset(n)
		s.flipped.Reset(n)
	}
	s.support.SetAll()
	s.workers = workers
	if !s.fnBound {
		s.fnBound = true
		s.fnD1, s.fnD2 = s.phaseD1, s.phaseD2
		s.fnFlip, s.fnFixup, s.fnThr = s.phaseFlip, s.phaseFixup, s.phaseThr
		s.fnA3Active, s.fnA3Count = s.phaseA3Active, s.phaseA3Count
		s.fnGamma1, s.fnGamma1All = s.phaseGamma1, s.phaseGamma1All
		s.fnGamma2 = s.phaseGamma2
	}
}

// sweep runs fn over the word range [0, nw) cut into one contiguous range
// per worker and returns the sum of fn's results. The caller runs the
// first range and one goroutine each runs the rest; the wait gives the
// caller a happens-before edge on every range's writes. With one worker it
// calls fn(0, nw) inline and starts no goroutine. Only phases that write
// nothing outside their own range's words or vertices, emit no list and
// read only what an earlier phase finished use it, so the result is the
// same for every worker count.
func (s *Solver) sweep(fn func(w0, w1 int) int) int {
	nw, workers := s.nw, s.workers
	if workers <= 1 {
		return fn(0, nw)
	}
	if len(s.sums) < workers {
		s.sums = make([]int, workers)
	}
	sums := s.sums
	s.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			sums[w] = fn(w*nw/workers, (w+1)*nw/workers)
			s.wg.Done()
		}(w)
	}
	total := fn(0, nw/workers)
	s.wg.Wait()
	for _, c := range sums[1:workers] {
		total += c
	}
	return total
}

// markNbhd sets the bits of N[u] in words.
func (s *Solver) markNbhd(words []uint64, u int32) {
	words[u>>6] |= 1 << (uint32(u) & 63)
	for _, nb := range s.adj[s.off[u]:s.off[u+1]] {
		words[nb>>6] |= 1 << (uint32(nb) & 63)
	}
}

// smallDegCutoff splits applyNewGray's decrement traversal into buckets:
// vertices with at most this many neighbors touch a handful of scattered
// cache lines, vertices above it stream long sorted adjacency runs.
const smallDegCutoff = 64

// applyNewGray performs the white→gray transitions collected by the
// covering recheck. Each vertex turns gray exactly once over the whole
// run, so the total cost of the δ̃ decrements is O(n + m) — this is what
// replaces the references' trueDtil full rescans.
//
// The transition runs in word-batched, degree-bucketed passes rather than
// per-bit probes:
//
//  1. Gray marking. The newGray list is ascending, so bits sharing a word
//     accumulate into one mask and land with a single OR instead of one
//     read-modify-write per vertex.
//  2. δ̃ decrements, bucketed by degree. The small-degree bucket runs
//     first — its updates are scattered single-cache-line touches that
//     keep the dtil working set hot — and the large-degree bucket last,
//     so its long sorted runs stream through dtil without interleaving
//     evictions into the scattered updates. Decrements are commutative
//     and each vertex's zero crossing happens exactly once regardless of
//     order, so dtil and the zeroed set are bit-identical to the
//     per-vertex order.
//  3. Support clearing for the vertices whose δ̃ hit zero, collected into
//     a scratch list during pass 2. At most n zero events occur over the
//     whole run, so this pass costs O(n) total.
func (s *Solver) applyNewGray() {
	gw := s.gray.Words()
	off, adj, dtil, acnt := s.off, s.adj, s.dtil, s.acnt

	marked := 0
	curW := -1
	var mask uint64
	for _, v := range s.newGray {
		if wi := int(v >> 6); wi != curW {
			if curW >= 0 {
				gw[curW] |= mask
			}
			curW, mask = wi, 0
		}
		mask |= 1 << (uint32(v) & 63)
		acnt[v] = 0 // a(v) is defined as 0 for gray vertices
		marked++
	}
	if curW >= 0 {
		gw[curW] |= mask
	}
	s.whiteCount -= marked

	s.zeroed = s.zeroed[:0]
	for pass := 0; pass < 2; pass++ {
		for _, v := range s.newGray {
			begin, end := off[v], off[v+1]
			small := int(end-begin) <= smallDegCutoff
			if small != (pass == 0) {
				continue
			}
			dtil[v]--
			if dtil[v] == 0 {
				s.zeroed = append(s.zeroed, v)
			}
			for _, u := range adj[begin:end] {
				dtil[u]--
				if dtil[u] == 0 {
					s.zeroed = append(s.zeroed, u)
				}
			}
		}
	}

	for _, v := range s.zeroed {
		s.support.Clear(int(v))
	}
}
