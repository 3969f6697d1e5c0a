// Package graph provides the undirected-graph substrate used across the
// repository: a compact CSR (compressed sparse row) representation,
// construction with validation, traversal helpers, the closed-neighborhood
// degree maxima δ⁽¹⁾/δ⁽²⁾ used throughout Kuhn–Wattenhofer, and
// dominating-set verification.
//
// Vertices are identified by integers 0..N()-1. Graphs are simple (no
// self-loops, no parallel edges) and immutable after construction.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable simple undirected graph in CSR form.
type Graph struct {
	off    []int32 // len n+1; adj[off[v]:off[v+1]] are v's neighbors, sorted
	adj    []int32
	maxDeg int
}

// New builds a graph with n vertices from an edge list. Edges may appear in
// either orientation; duplicates are merged. Self-loops and out-of-range
// endpoints are rejected with an error.
func New(n int, edges [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int32, n)
	for i, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graph: edge %d is a self-loop at vertex %d", i, u)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge %d = (%d,%d) out of range [0,%d)", i, u, v, n)
		}
		deg[u]++
		deg[v]++
	}
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	adj := make([]int32, off[n])
	pos := make([]int32, n)
	copy(pos, off[:n])
	for _, e := range edges {
		u, v := int32(e[0]), int32(e[1])
		adj[pos[u]] = v
		pos[u]++
		adj[pos[v]] = u
		pos[v]++
	}
	// Sort each adjacency list and strip duplicate edges in place.
	w := int32(0)
	newOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		nbrs := adj[lo:hi]
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		newOff[v] = w
		var prev int32 = -1
		for _, u := range nbrs {
			if u != prev {
				adj[w] = u
				w++
				prev = u
			}
		}
	}
	newOff[n] = w
	// Dedup left the tail of adj unused but still pinned by the slice
	// header. When the shrink is material (> 1/8 of the allocation — e.g.
	// an input listing both edge orientations wastes half), clone down so
	// a long-lived graph (the serve cache holds many) releases the tail.
	if int(w) < len(adj)-len(adj)/8 {
		adj = append(make([]int32, 0, w), adj[:w]...)
	}
	g := &Graph{off: newOff, adj: adj[:w]}
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	return g, nil
}

// FromCSR builds a graph directly from compressed-sparse-row arrays,
// taking ownership of both slices — the checked constructor for callers
// that already hold a canonical CSR and want to skip New's per-edge sort
// and dedup passes. Structural invariants (offset monotonicity, length
// agreement, entry ranges) are verified in O(n+m); the per-vertex
// ordering invariants (sorted, duplicate-free, self-loop-free, symmetric
// adjacency) remain the caller's contract. The dyngraph commit hot path
// uses FromCSRUnchecked below instead — its merge proves every invariant
// by construction; FromCSR is the entry point for everyone who cannot.
func FromCSR(off, adj []int32) (*Graph, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("graph: FromCSR: empty offset array (want n+1 entries)")
	}
	n := len(off) - 1
	if off[0] != 0 || int(off[n]) != len(adj) {
		return nil, fmt.Errorf("graph: FromCSR: offsets span [%d,%d], want [0,%d]", off[0], off[n], len(adj))
	}
	g := &Graph{off: off, adj: adj}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("graph: FromCSR: offset of vertex %d decreases", v+1)
		}
		if d := int(off[v+1] - off[v]); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	for i, u := range adj {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("graph: FromCSR: adj[%d] = %d out of range [0,%d)", i, u, n)
		}
	}
	return g, nil
}

// FromCSRUnchecked wraps canonical CSR arrays and a precomputed maximum
// degree without any validation — the constructor for the dyngraph commit
// hot path, whose merge derives all three from an already-valid graph and
// a validated delta batch (and whose differential tests compare every
// committed CSR against a from-scratch New). Every invariant of Graph is
// the caller's contract here; use FromCSR or New everywhere correctness
// isn't proven by construction.
func FromCSRUnchecked(off, adj []int32, maxDeg int) *Graph {
	return &Graph{off: off, adj: adj, maxDeg: maxDeg}
}

// MustNew is New that panics on error; intended for tests and generators
// whose inputs are correct by construction.
func MustNew(n int, edges [][2]int) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns ∆, the maximum degree over all vertices (0 for an empty
// or edgeless graph).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// CSR exposes the raw compressed-sparse-row arrays: adj[off[v]:off[v+1]]
// is the sorted adjacency list of v. Both slices alias the graph's internal
// storage and must not be modified. The simulation engine uses them to
// preallocate per-edge message buffers indexed by directed-edge position.
func (g *Graph) CSR() (off, adj []int32) { return g.off, g.adj }

// HasEdge reports whether {u,v} is an edge. O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(v) })
	return i < len(nbrs) && nbrs[i] == int32(v)
}

// Edges returns all edges with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.M())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int32(v) < u {
				edges = append(edges, [2]int{v, int(u)})
			}
		}
	}
	return edges
}

// AvgDegree returns the average vertex degree (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.N(), g.M(), g.MaxDegree())
}

// Degree1 returns the per-vertex array δ⁽¹⁾: δ⁽¹⁾(v) is the maximum degree
// among the closed neighborhood N[v] (v itself and its neighbors). This is
// the quantity appearing in Lemma 1 of the paper.
func (g *Graph) Degree1() []int {
	n := g.N()
	d1 := make([]int, n)
	for v := 0; v < n; v++ {
		m := g.Degree(v)
		for _, u := range g.Neighbors(v) {
			if d := g.Degree(int(u)); d > m {
				m = d
			}
		}
		d1[v] = m
	}
	return d1
}

// Degree2 returns the per-vertex array δ⁽²⁾: δ⁽²⁾(v) is the maximum degree
// among all vertices within distance 2 of v, computed (as in the paper's
// remark on Algorithm 1) as max over N[v] of δ⁽¹⁾.
func (g *Graph) Degree2() []int {
	n := g.N()
	d1 := g.Degree1()
	d2 := make([]int, n)
	for v := 0; v < n; v++ {
		m := d1[v]
		for _, u := range g.Neighbors(v) {
			if d1[u] > m {
				m = d1[u]
			}
		}
		d2[v] = m
	}
	return d2
}

// IsDominatingSet reports whether inDS (indexed by vertex) is a dominating
// set: every vertex is in the set or adjacent to a member.
func (g *Graph) IsDominatingSet(inDS []bool) bool {
	return len(g.Uncovered(inDS)) == 0
}

// Uncovered returns the vertices not dominated by inDS, in increasing order.
func (g *Graph) Uncovered(inDS []bool) []int {
	var un []int
	for v := 0; v < g.N(); v++ {
		if inDS[v] {
			continue
		}
		covered := false
		for _, u := range g.Neighbors(v) {
			if inDS[u] {
				covered = true
				break
			}
		}
		if !covered {
			un = append(un, v)
		}
	}
	return un
}

// SetSize counts the true entries of inDS.
func SetSize(inDS []bool) int {
	c := 0
	for _, b := range inDS {
		if b {
			c++
		}
	}
	return c
}

// Members returns the indices of the true entries of inDS, in order, in one
// exactly sized allocation; nil when there are none.
func Members(inDS []bool) []int {
	n := SetSize(inDS)
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for v, b := range inDS {
		if b {
			out = append(out, v)
		}
	}
	return out
}
