package fastpath

import (
	"math/bits"
	"runtime"
	"sync"
)

// The package-level solver pool, keyed by vertex-capacity class: class c
// holds solvers whose buffers cover up to 2^c vertices. Classing keeps a
// server that interleaves small and huge topologies from ping-ponging one
// solver's buffers between sizes — each request reuses a solver that
// already fits, and Release files grown solvers under their new class.
//
// Each class is a last-in-first-out free list, so the solver that answered
// the last request is the one the next request gets: after a mutate, the
// solver holding the previous epoch meets the new one and replays its LP
// stage (replay.go) instead of running it again.
var pools [64]freeList

// freeList is one class's stack of idle solvers, at most GOMAXPROCS deep.
type freeList struct {
	mu   sync.Mutex
	idle []*Solver
}

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
		if s := pools[i].pop(); s != nil {
			return s
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
// keys the cached δ⁽¹⁾/δ⁽²⁾ tables, the LP memo and the trajectory a
// derived graph replays, which pay off exactly in the serving pattern
// (many requests against one preloaded topology, or against its epochs
// one after another). Idle solvers stay until reused, at most GOMAXPROCS
// per class: when a class is full, its least recently released solver is
// dropped for the garbage collector. So the pool retains at most that many
// solvers per class, each with the graph it keys on, for as long as no
// request of that class comes.
func Release(s *Solver) {
	s.curCosts = nil
	pools[capClass(s.Cap())].push(s)
}

func (f *freeList) pop() *Solver {
	f.mu.Lock()
	defer f.mu.Unlock()
	last := len(f.idle) - 1
	if last < 0 {
		return nil
	}
	s := f.idle[last]
	f.idle[last] = nil
	f.idle = f.idle[:last]
	return s
}

func (f *freeList) push(s *Solver) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.idle) >= runtime.GOMAXPROCS(0) {
		copy(f.idle, f.idle[1:])
		f.idle = f.idle[:len(f.idle)-1]
	}
	f.idle = append(f.idle, s)
}
