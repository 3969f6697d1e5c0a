package graphio

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"

	"kwmds/internal/graph"
)

// OpenMapped memory-maps a kwcsr container and aliases the graph's CSR
// arrays (and optional weight vector) directly out of the mapping: no
// allocation proportional to the graph, no decode pass, no copy — opening a
// multi-million-vertex container costs one page-table setup plus the O(n)
// validation of the offset array. The two O(payload) passes are deferred
// off the open path: the embedded digest is not recomputed (VerifyDigest
// does it on demand) and the adjacency rows are not content-checked
// (VerifyStructure does, once, memoized). Both are pure memory-bandwidth
// scans that would dominate the open — deferring them is what makes a
// million-vertex open a few milliseconds instead of tens.
//
// Fail-closed where it must be: every header count is bounds-checked
// against the actual file size before any byte of the payload is aliased
// (a truncated or hand-shortened container is rejected by the parser
// ReadBinaryCSR shares, never a mapping whose tail would fault on first
// touch), and the offset array is fully validated because offsets slice
// the adjacency everywhere downstream. What the deferral leaves open is
// adjacency *content*: a container whose rows break the canonical-CSR
// contract yields a graph on which kernels can panic (Go bounds checks —
// never corrupt memory). Call VerifyStructure before trusting a container
// you did not write; long-lived paths (serve preload) do so at startup.
//
// The returned MappedGraph owns the mapping. Its Graph's CSR slices alias
// mapped memory, so the mapping must outlive every use of the graph —
// Retain/Release pin it across in-flight solves, and Close drops the
// owner's reference. On platforms without mmap (and for containers whose
// byte order or alignment defeats aliasing) OpenMapped transparently falls
// back to a read-and-decode with identical semantics.
func OpenMapped(path string) (*MappedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size != int64(int(size)) {
		return nil, fmt.Errorf("graphio: kwcsr container %s too large to map", path)
	}
	data, mapped, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("graphio: mapping %s: %w", path, err)
	}
	m, err := parseMappedBytes(data)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, err
	}
	m.mapped = mapped
	return m, nil
}

// MappedGraph is an open handle on a memory-mapped kwcsr container. The
// graph it exposes aliases the mapping, so the handle's lifetime bounds the
// graph's: Close when done, Retain/Release to pin it across concurrent use.
type MappedGraph struct {
	g       *graph.Graph
	weights []float64
	digest  [sha256.Size]byte
	data    []byte
	mapped  bool // data is an mmap (unmap on last release) vs a heap copy
	refs    atomic.Int64
	closed  atomic.Bool

	structOnce sync.Once
	structErr  error
}

// Graph returns the mapped graph. Its CSR arrays alias the mapping: valid
// only while the handle holds a reference (between Open/Retain and
// Close/Release).
func (m *MappedGraph) Graph() *graph.Graph { return m.g }

// Weights returns the container's per-vertex weight vector, nil when it
// carries none. Aliases the mapping under the same lifetime rules as Graph.
func (m *MappedGraph) Weights() []float64 { return m.weights }

// Digest returns the container's embedded topology digest in the raw form
// DigestRaw(g) produces — the form the container and the WAL store —
// without recomputing anything. Trust it only after VerifyDigest.
func (m *MappedGraph) Digest() [sha256.Size]byte { return m.digest }

// VerifyDigest recomputes the digest tree's root over the mapped arrays
// (hashed in place) and compares it to the container's embedded digest —
// the integrity check OpenMapped defers off the open path. It reads the
// whole mapping once; call it after open (or from a background goroutine
// holding a Retain) when the container crosses a trust boundary.
func (m *MappedGraph) VerifyDigest() error {
	off, adj := m.g.CSR()
	if csrDigest(m.g.N(), off, adj) != m.digest {
		return fmt.Errorf("graphio: kwcsr digest mismatch: container corrupt or hand-edited")
	}
	return nil
}

// VerifyStructure checks the adjacency rows against the canonical-CSR
// contract the kernels assume — strictly increasing, in range, no
// self-loops — the O(e) content pass OpenMapped defers (the offsets were
// already validated at open). Memoized: the scan runs once per handle, so
// calling it before every solve costs one atomic after the first. Like
// VerifyDigest, run it when the container crosses a trust boundary; a
// structurally invalid container can make a solver panic (Go bounds
// checks), never corrupt memory.
func (m *MappedGraph) VerifyStructure() error {
	m.structOnce.Do(func() {
		off, adj := m.g.CSR()
		n := m.g.N()
		if !scanRows(off, adj, n) {
			return
		}
		// The fast scan may flag false positives on values whose high bit
		// defeats its wrap tricks, but never misses a real violation — this
		// precise pass is the verdict and names the first violation.
		for v := 0; v < n; v++ {
			prev := int32(-1)
			vv := int32(v)
			for i, u := range adj[off[v]:off[v+1]] {
				if u == vv {
					m.structErr = fmt.Errorf("graphio: kwcsr self-loop at vertex %d", v)
					return
				}
				if u <= prev {
					m.structErr = fmt.Errorf("graphio: kwcsr adjacency row of vertex %d is not strictly increasing", v)
					return
				}
				if uint32(u) >= uint32(n) {
					m.structErr = fmt.Errorf("graphio: kwcsr payload rejected: adj[%d] = %d out of range [0,%d)", int(off[v])+i, u, n)
					return
				}
				prev = u
			}
		}
	})
	return m.structErr
}

// Retain acquires an additional reference, pinning the mapping across a
// concurrent use (a solve in flight while another goroutine may Close). It
// fails — returning false — once the last reference is gone; a false return
// means the mapping may already be unmapped and the graph must not be
// touched.
func (m *MappedGraph) Retain() bool {
	for {
		r := m.refs.Load()
		if r <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops a reference taken by Retain (or the open itself, via Close).
// The mapping is unmapped when the last reference drops, at which point the
// graph's memory is gone — every Retain must be balanced before then.
func (m *MappedGraph) Release() {
	if m.refs.Add(-1) == 0 {
		data := m.data
		m.data = nil
		if m.mapped {
			unmapFile(data)
		}
	}
}

// Close drops the owner's reference. The mapping is unmapped once every
// outstanding Retain is released; closing twice is an error (it would
// double-release a reference the caller no longer holds).
func (m *MappedGraph) Close() error {
	if m.closed.Swap(true) {
		return fmt.Errorf("graphio: MappedGraph closed twice")
	}
	m.Release()
	return nil
}

// hostLittleEndian reports whether int32/float64 slices may alias the
// container's little-endian payload directly, and the digest hash int32
// arrays in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// parseMappedBytes is the kwcsr parser: it validates a whole in-memory
// container image and builds the graph over it, aliasing the payload when
// the platform allows and copy-decoding otherwise. OpenMapped hands it a
// mapping and ReadBinaryCSR a buffered read. It checks the header, the
// exact size, the padding and the offsets; the adjacency rows and the
// digest are left to VerifyStructure and VerifyDigest. Every count is
// checked against len(data) before any slice is formed: short data yields
// a truncation diagnostic, never a panic.
func parseMappedBytes(data []byte) (*MappedGraph, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	// The fail-closed gate: no payload byte is aliased or allocated until
	// the header's declared extent fits the bytes actually present.
	if err := h.checkSize(len(data)); err != nil {
		return nil, err
	}
	n, e, pad := h.n, h.e, h.pad
	m := &MappedGraph{data: data}
	copy(m.digest[:], data[32:64])

	offB := data[kwcsrHeaderSize : kwcsrHeaderSize+(n+1)*4]
	adjB := data[kwcsrHeaderSize+(n+1)*4 : kwcsrHeaderSize+(n+1+e)*4]
	for _, b := range data[kwcsrHeaderSize+(n+1+e)*4 : kwcsrHeaderSize+(n+1+e)*4+pad] {
		if b != 0 {
			return nil, fmt.Errorf("graphio: kwcsr padding bytes are not zero")
		}
	}
	off := aliasInt32(offB, n+1)
	adj := aliasInt32(adjB, e)
	if off == nil || adj == nil {
		// Big-endian host or misaligned buffer: decode into fresh arrays.
		// Rare path, same validation below either way.
		off = make([]int32, n+1)
		for i := range off {
			off[i] = int32(binary.LittleEndian.Uint32(offB[i*4:]))
		}
		adj = make([]int32, e)
		for i := range adj {
			adj[i] = int32(binary.LittleEndian.Uint32(adjB[i*4:]))
		}
	}

	// Offset validation — the only payload pass the open performs, and a
	// load-bearing one: off slices adj everywhere downstream, so monotonic
	// offsets spanning exactly [0, e] are what make every later row access
	// in-bounds. The adjacency row contract (strictly increasing, in range,
	// no self-loops) is O(e) of pure memory bandwidth and is deferred to
	// VerifyStructure, like the digest — that deferral is what makes the
	// open itself O(n).
	if off[0] != 0 || int(off[n]) != e {
		return nil, fmt.Errorf("graphio: kwcsr payload rejected: offsets span [%d,%d], want [0,%d]", off[0], off[n], e)
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return nil, fmt.Errorf("graphio: kwcsr offsets decrease at vertex %d", v)
		}
		if d := int(off[v+1] - off[v]); d > maxDeg {
			maxDeg = d
		}
	}
	m.g = graph.FromCSRUnchecked(off, adj, maxDeg)

	if h.flags&kwcsrHasWeights != 0 {
		wB := data[h.size-n*8:]
		m.weights = aliasFloat64(wB, n)
		if m.weights == nil {
			m.weights = make([]float64, n)
			for i := range m.weights {
				m.weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(wB[i*8:]))
			}
		}
	}
	m.refs.Store(1)
	return m, nil
}

// scanRows is the admission pass over the adjacency rows: a branchless
// accumulator that stays zero for every canonical payload and goes nonzero
// for every violation of the row contract (strictly increasing, in range,
// no self-loops). Violations are detected through wrap tricks on the high
// bit, so some out-of-range bit patterns flag through a different term than
// a precise scan would name — callers treat nonzero as "re-scan precisely
// for the diagnostic", never as a verdict. For the inductive first
// violation (all earlier elements valid, so prev ∈ [-1, n)) each term is
// exact on valid-range values and at least one term fires on any invalid
// one; on a fully canonical payload no term ever fires, so valid containers
// take exactly one pass.
func scanRows(off, adj []int32, n int) bool {
	un1 := uint32(n) - 1
	var bad uint32
	for v := 0; v < n; v++ {
		prev := int32(-1)
		uvv := uint32(v)
		for _, u := range adj[off[v]:off[v+1]] {
			uu := uint32(u)
			// Bit 31 of: un1-uu (out of range), u-prev-1 (not strictly
			// increasing), (uu^uvv)-1 (self-loop). Low bits are noise.
			bad |= (un1 - uu) | uint32(u-prev-1) | ((uu ^ uvv) - 1)
			prev = u
		}
	}
	return bad>>31 != 0
}

// aliasInt32 reinterprets b as count little-endian int32s in place, or
// returns nil when the host byte order or the buffer's alignment makes the
// view unsound (callers fall back to a copy-decode).
func aliasInt32(b []byte, count int) []int32 {
	if count == 0 {
		return []int32{}
	}
	if !hostLittleEndian || uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(int32(0)) != 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), count)
}

// aliasFloat64 is aliasInt32 for the weight section.
func aliasFloat64(b []byte, count int) []float64 {
	if count == 0 {
		return []float64{}
	}
	if !hostLittleEndian || uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(float64(0)) != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), count)
}
