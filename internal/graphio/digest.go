package graphio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"unsafe"

	"kwmds/internal/graph"
)

// The topology digest is the root of a two-level SHA-256 tree over fixed
// blocks of leafVertices consecutive vertices. For block b, with
// hi = min(64b+64, n):
//
//	leaf_b = SHA-256(0x00 ‖ LE32 deg(v) for v ∈ [64b, hi) ‖ LE32 adj[off[64b] : off[hi]])
//	root   = SHA-256(0x01 ‖ LE64 n ‖ leaf_0 ‖ … ‖ leaf_last)
//
// A leaf hashes degrees and neighbour lists, never absolute offsets, so an
// edge toggle changes exactly its two endpoints' leaves and a vertex
// addition changes only the last leaf and any new one: the blocks holding
// a dyngraph commit's Touched vertices. The 0x00/0x01 prefixes separate
// the two levels, and n fixes the block count and every block's vertex
// span, so the encoding is unambiguous and the root is as
// collision-resistant as a flat SHA-256 over the CSR.

// leafVertices is the block size: one bitset word of vertices, and one
// block of the graph's own layout (graph.Block).
const leafVertices = graph.BlockSize

// rootPrefix is the byte length of 0x01 ‖ LE64 n ahead of the leaves.
const rootPrefix = 9

// Digest returns the hex topology digest of g. Two graphs share a digest
// iff they are identical, regardless of the edge order or orientation they
// were built from, so the digest is a stable cache key for
// topology-addressed caches.
func Digest(g *graph.Graph) string {
	sum := DigestRaw(g)
	return hex.EncodeToString(sum[:])
}

// DigestRaw returns the raw (unencoded) topology digest — the form the
// kwcsr container embeds and the WAL stores in its per-epoch pre/post
// fields, where 32 fixed bytes beat a 64-byte hex string. Digest is its hex
// encoding.
func DigestRaw(g *graph.Graph) [sha256.Size]byte {
	return NewDigestTree(g).Root()
}

// csrDigest is the root over raw CSR arrays (off has n+1 entries). It is
// total: offsets that break the CSR contract yield some digest, never a
// panic (see leaf).
func csrDigest(n int, off, adj []int32) [sha256.Size]byte {
	t := newTree(n)
	for b := range t.blocks() {
		lo := b * leafVertices
		t.leaf(b, off[lo:min(lo+leafVertices, n)+1], adj)
	}
	t.seal()
	return t.root
}

// DigestTree keeps the leaves of one live graph's topology digest, so a
// commit re-hashes only the blocks it touched plus the root. It is not safe
// for concurrent use.
type DigestTree struct {
	n    int
	buf  []byte // the root's preimage 0x01 ‖ LE64 n ‖ leaves, leaves in place
	root [sha256.Size]byte
	h    hash.Hash
	// scratch holds a leaf's 0x00 ‖ degree prefix, and on big-endian hosts
	// the encoded adjacency, one block's worth at a time.
	scratch [1 + 4*leafVertices]byte
}

// NewDigestTree hashes every leaf of g and its root, reading g block by
// block (a paged graph is never flattened).
func NewDigestTree(g *graph.Graph) *DigestTree {
	t := newTree(g.N())
	for b := range t.blocks() {
		off, adj := g.Block(b)
		t.leaf(b, off, adj)
	}
	t.seal()
	return t
}

// newTree returns a tree over n vertices with its leaves still unhashed.
func newTree(n int) *DigestTree {
	t := &DigestTree{h: sha256.New()}
	t.buf = append(t.buf, 0x01)
	t.resize(n)
	return t
}

// Root returns the digest of the tree's current graph.
func (t *DigestTree) Root() [sha256.Size]byte { return t.root }

// Update moves the tree from its current graph to next and returns the new
// root. touched must name every vertex whose neighbour list differs between
// the two (dyngraph.Delta.Touched); the blocks whose vertex span changed
// with n are re-hashed whatever touched says. Only those leaves and the
// root are re-hashed.
func (t *DigestTree) Update(next *graph.Graph, touched []int32) [sha256.Size]byte {
	from := t.blocks()
	if n := next.N(); n != t.n {
		from = min(n, t.n) / leafVertices
		t.resize(n)
	}
	last := -1
	for _, v := range touched {
		if b := int(v) / leafVertices; b != last && b < from {
			off, adj := next.Block(b)
			t.leaf(b, off, adj)
			last = b
		}
	}
	for b := from; b < t.blocks(); b++ {
		off, adj := next.Block(b)
		t.leaf(b, off, adj)
	}
	t.seal()
	return t.root
}

func (t *DigestTree) blocks() int { return (t.n + leafVertices - 1) / leafVertices }

// resize sets the vertex count, growing or truncating the leaf area.
func (t *DigestTree) resize(n int) {
	t.n = n
	size := rootPrefix + sha256.Size*t.blocks()
	if cap(t.buf) < size {
		t.buf = append(t.buf[:cap(t.buf)], make([]byte, size-cap(t.buf))...)
	}
	t.buf = t.buf[:size]
	binary.LittleEndian.PutUint64(t.buf[1:rootPrefix], uint64(n))
}

func (t *DigestTree) seal() { t.root = sha256.Sum256(t.buf) }

// leaf re-hashes block b from its adjacency view (graph.Graph.Block's:
// off holds the block's offsets, one per vertex plus one, into adj): the
// 0x00 prefix, the block's degrees, then its adjacency span. The span is
// clamped to [0, len(adj)] and an inverted span counts as empty, which
// keeps the digest total on malformed offsets; on a valid CSR the clamp is
// a no-op.
func (t *DigestTree) leaf(b int, off, adj []int32) {
	k := len(off) - 1
	s, e := clampSpan(off[0], len(adj)), clampSpan(off[k], len(adj))
	if e < s {
		e = s
	}
	p := append(t.scratch[:0], 0x00)
	for i := range k {
		p = binary.LittleEndian.AppendUint32(p, uint32(off[i+1]-off[i]))
	}
	t.h.Reset()
	t.h.Write(p)
	t.hashInt32s(adj[s:e])
	at := rootPrefix + sha256.Size*b
	t.h.Sum(t.buf[at:at])
}

func clampSpan(x int32, limit int) int {
	return min(max(int(x), 0), limit)
}

// hashInt32s hashes xs little-endian: in place on little-endian hosts,
// through the scratch buffer elsewhere.
func (t *DigestTree) hashInt32s(xs []int32) {
	if len(xs) == 0 {
		return
	}
	if hostLittleEndian {
		t.h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 4*len(xs)))
		return
	}
	for len(xs) > 0 {
		k := min(len(xs), leafVertices)
		p := t.scratch[:0]
		for _, x := range xs[:k] {
			p = binary.LittleEndian.AppendUint32(p, uint32(x))
		}
		t.h.Write(p)
		xs = xs[k:]
	}
}
