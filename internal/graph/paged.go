package graph

import (
	"sync"
	"weak"
)

// A paged graph is a flat base CSR plus an immutable table with one entry
// per block of BlockSize consecutive vertices. A nil entry reads the block
// from the base; a non-nil one is a page, the block's own small CSR (its
// vertices' local offsets and one adjacency run). A block is one word of
// the solver's bitsets and one leaf of the digest tree, so a reader that
// walks the graph block by block (Block) tests one pointer per block, and
// one that reads single lists (Neighbors, Degree) one per list.
//
// dyngraph's commit builds paged successors through Successor: it copies
// the parent's table and writes pages only for the blocks holding vertices
// whose lists changed, so an epoch costs n/BlockSize pointers plus the
// pages it touched instead of a fresh O(n+m) CSR. A successor keeps its
// parent's vertex count and base; the base is never a mapping (a commit
// over a mapped graph builds a flat one instead), so no page ever reads
// memory that can be unmapped under it.

// BlockSize is the number of vertices in a block, and so in a page.
const BlockSize = 64

const (
	pageShift = 6 // log2(BlockSize)
	pageMask  = BlockSize - 1
)

// page is one block's adjacency: the block's i-th vertex has the sorted
// neighbors adj[off[i]:off[i+1]], and off[0] = 0.
type page struct {
	off [BlockSize + 1]int32
	adj []int32
}

// paging is a paged graph's page table and what follows from it.
type paging struct {
	table   []*page // one entry per block; nil reads the base
	count   int     // non-nil entries
	entries int     // adjacency entries, 2m

	// once builds flatOff/flatAdj, the flat copy CSR hands out.
	once             sync.Once
	flatOff, flatAdj []int32
}

// Blocks returns the number of blocks, ⌈n/BlockSize⌉.
func (g *Graph) Blocks() int { return (g.N() + BlockSize - 1) / BlockSize }

// Block returns the adjacency of block b, the vertices v with
// v/BlockSize = b: with i = v − b·BlockSize, v's sorted neighbors are
// adj[off[i]:off[i+1]]. off has one entry per vertex of the block plus
// one. For a block no page overrides they are the base's own arrays: off a
// window of the base offsets, adj the whole base adjacency. Both alias g's
// storage and must not be modified.
func (g *Graph) Block(b int) (off, adj []int32) {
	lo := b << pageShift
	k := min(BlockSize, len(g.off)-1-lo)
	if g.paged != nil {
		if p := g.paged.table[b]; p != nil {
			return p.off[:k+1], p.adj
		}
	}
	return g.off[lo : lo+k+1], g.adj
}

// PagedBlocks returns the number of blocks that pages override: 0 for a
// flat graph.
func (g *Graph) PagedBlocks() int {
	if g.paged == nil {
		return 0
	}
	return g.paged.count
}

// flatten returns g's flat CSR, building it on the first call.
func (pg *paging) flatten(g *Graph) (off, adj []int32) {
	pg.once.Do(func() {
		n := g.N()
		off := make([]int32, n+1)
		adj := make([]int32, pg.entries)
		pos := int32(0)
		for b := range g.Blocks() {
			bo, ba := g.Block(b)
			shifted := off[b<<pageShift : b<<pageShift+len(bo)-1]
			for i := range shifted {
				shifted[i] = pos + bo[i] - bo[0]
			}
			pos += int32(copy(adj[pos:], ba[bo[0]:bo[len(bo)-1]]))
		}
		off[n] = pos
		pg.flatOff, pg.flatAdj = off, adj
	})
	return pg.flatOff, pg.flatAdj
}

// A Successor builds a paged successor of a graph: a copy of the parent's
// page table in which the caller gives a new page to every block whose
// vertices' lists change. Every other block reads what the parent reads.
type Successor struct {
	parent *Graph
	pg     *paging
}

// Successor starts a paged successor of g. g must not be mapped (Mapped):
// the successor reads g's base wherever no page overrides it.
func (g *Graph) Successor() Successor {
	if g.mapped {
		panic("graph: paged successor of a mapped graph")
	}
	pg := &paging{table: make([]*page, g.Blocks()), entries: 2 * g.M()}
	if g.paged != nil {
		copy(pg.table, g.paged.table)
		pg.count = g.paged.count
	}
	return Successor{parent: g, pg: pg}
}

// Page gives block b, at most once per Successor, a new page of size
// adjacency entries, and returns the page's offsets (one entry per vertex
// of the block plus one, off[0] = 0) and adjacency for the caller to fill.
// adj carries slack spare entries past the page's end, room for a merge to
// overrun before it detects a bad batch.
func (s Successor) Page(b, size, slack int) (off, adj []int32) {
	old, _ := s.parent.Block(b)
	s.pg.entries += size - int(old[len(old)-1]-old[0])
	if s.pg.table[b] == nil {
		s.pg.count++
	}
	buf := make([]int32, size+slack)
	p := &page{adj: buf[:size]}
	s.pg.table[b] = p
	return p.off[:len(old)], buf
}

// Graph returns the successor with maximum degree maxDeg. Its lineage
// (Lineage) is the parent and touched, the vertices whose lists differ
// from the parent's, in increasing order; the graph takes ownership of
// touched. The pages' contents are the caller's contract, as the arrays
// of FromCSRUnchecked are.
func (s Successor) Graph(maxDeg int, touched []int32) *Graph {
	p := s.parent
	return &Graph{off: p.off, adj: p.adj, maxDeg: maxDeg, paged: s.pg, parent: weak.Make(p), touched: touched}
}
