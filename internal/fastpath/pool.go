package fastpath

import (
	"math/bits"
	"sync"
)

// The package-level solver pool, keyed by vertex-capacity class: class c
// holds solvers whose buffers cover up to 2^c vertices. Classing keeps a
// server that interleaves small and huge topologies from ping-ponging one
// solver's buffers between sizes — each request reuses a solver that
// already fits, and Release files grown solvers under their new class.
var pools [64]sync.Pool

// capClass returns the pool class for n vertices: the smallest c with
// 2^c ≥ max(n, 1).
func capClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Acquire returns a pooled solver whose buffers already fit n vertices, or
// a fresh one. Callers pass it back with Release when the result has been
// copied out; the facade's sequential path and therefore every server
// cold solve go through this pool.
func Acquire(n int) *Solver {
	c := capClass(n)
	// The exact class first, then one above: a solver grown mid-life
	// rounds its capacity up to a power of two, so it files one class
	// higher than the request that grew it.
	for i := c; i <= c+1 && i < len(pools); i++ {
		if v := pools[i].Get(); v != nil {
			return v.(*Solver)
		}
	}
	return New()
}

// Release files s back into the pool under its current capacity class.
// The caller must not touch s — or any Result slice aliasing its buffers —
// afterwards.
//
// A released solver drops its reference to the last request's cost vector
// but deliberately keeps the last graph (and its CSR slices): the graph
// keys the cached δ⁽¹⁾/δ⁽²⁾ tables and the LP memo, which pay off exactly
// in the serving pattern (many requests against one preloaded, long-lived
// topology) — the next Acquire that gets this solver back skips the LP
// stage for a repeated configuration. For one-off inline graphs this pins
// the graph until the next Acquire of that class or a GC drain of the
// pool — bounded, and small next to the solver's own buffers.
func Release(s *Solver) {
	s.curCosts = nil
	pools[capClass(s.Cap())].Put(s)
}
