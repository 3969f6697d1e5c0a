package graphio

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"kwmds/internal/graph"
)

// The kwcsr binary container stores a graph's canonical CSR form verbatim,
// so loading is a validated copy instead of a parse: no tokenizing, no edge
// sorting, no CSR rebuild. Layout (all integers little-endian):
//
//	offset  size  field
//	     0     6  magic "kwcsr\x00"
//	     6     2  version (uint16, currently 2)
//	     8     8  n (uint64, vertex count)
//	    16     8  e (uint64, adjacency entries = 2·edges)
//	    24     8  flags (uint64, bit 0 = weights present)
//	    32    32  raw topology digest: the root DigestRaw returns
//	    64  (n+1)·4  off, int32 LE
//	     …   e·4  adj, int32 LE
//	     …   0–4  zero padding to the next 8-byte boundary
//	     …   n·8  weights, float64 LE (only when flags bit 0 is set)
//
// The embedded digest binds the topology: ReadBinaryCSR recomputes it and
// rejects mismatches, so bit rot and truncation cannot produce a silently
// wrong graph. It is the SHA-256 tree root over 64-vertex leaves that
// Digest returns (see digest.go) — a .kwcsr file carries the digest
// topology-addressed caches key on, for free. Version 1 containers embed a
// flat SHA-256 of (n, off, adj) instead and are refused at the version
// check. The weight section sits outside the digest
// (weights are not topology); padding must be zero so no undigested
// topology byte is free to flip. Structural validation (monotonic offsets,
// strictly increasing adjacency rows, no self-loops) is enforced on read;
// symmetry is the writer's contract — WriteBinaryCSR only ever serializes
// *graph.Graph values, which are symmetric by construction, and the digest
// covers the arrays as written.

const (
	kwcsrMagic      = "kwcsr\x00"
	kwcsrVersion    = 2
	kwcsrHeaderSize = 64
	kwcsrHasWeights = 1 << 0
)

// WriteBinaryCSR serializes g (and an optional per-vertex weight vector,
// which must have length n or be nil) into the kwcsr container.
func WriteBinaryCSR(w io.Writer, g *graph.Graph, weights []float64) error {
	if g == nil {
		return fmt.Errorf("graphio: nil graph")
	}
	n := g.N()
	if weights != nil && len(weights) != n {
		return fmt.Errorf("graphio: %d weights for %d vertices", len(weights), n)
	}
	off, adj := g.CSR()
	var hdr [kwcsrHeaderSize]byte
	copy(hdr[0:6], kwcsrMagic)
	binary.LittleEndian.PutUint16(hdr[6:8], kwcsrVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(adj)))
	var flags uint64
	if weights != nil {
		flags |= kwcsrHasWeights
	}
	binary.LittleEndian.PutUint64(hdr[24:32], flags)
	sum := csrDigest(n, off, adj)
	copy(hdr[32:64], sum[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeInt32LE(w, off); err != nil {
		return err
	}
	if err := writeInt32LE(w, adj); err != nil {
		return err
	}
	pad := (len(off) + len(adj)) * 4 % 8
	if pad != 0 {
		if _, err := w.Write(make([]byte, 8-pad)); err != nil {
			return err
		}
	}
	if weights != nil {
		buf := make([]byte, 0, 64<<10)
		for _, x := range weights {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			if len(buf) == cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeInt32LE streams xs little-endian through a chunk buffer (one Write
// per 64 KiB).
func writeInt32LE(w io.Writer, xs []int32) error {
	buf := make([]byte, 0, 64<<10)
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinaryCSR deserializes a kwcsr container, validating structure and
// verifying the embedded digest against the payload. The returned weight
// slice is nil when the container carries none.
func ReadBinaryCSR(r io.Reader) (*graph.Graph, []float64, error) {
	return readBinaryCSR(r, true)
}

// ReadBinaryCSRTrusted deserializes a kwcsr container without recomputing
// the embedded SHA-256 (which dominates decode time on million-vertex
// containers). Every structural validation still runs — a trusted read can
// never produce a graph that violates CSR invariants, only one whose bytes
// were altered consistently. Use it when the caller verifies the digest
// itself or the container comes from a trusted producer in the same
// process; everything long-lived (serve preload, bench graph sets) takes
// the verifying ReadBinaryCSR.
func ReadBinaryCSRTrusted(r io.Reader) (*graph.Graph, []float64, error) {
	return readBinaryCSR(r, false)
}

func readBinaryCSR(r io.Reader, verify bool) (*graph.Graph, []float64, error) {
	var hdr [kwcsrHeaderSize]byte
	if got, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("graphio: kwcsr container truncated: %d bytes, header is %d", got, kwcsrHeaderSize)
	}
	if string(hdr[0:6]) != kwcsrMagic {
		return nil, nil, fmt.Errorf("graphio: not a kwcsr container (bad magic %q)", hdr[0:6])
	}
	if v := binary.LittleEndian.Uint16(hdr[6:8]); v != kwcsrVersion {
		return nil, nil, fmt.Errorf("graphio: unsupported kwcsr version %d (want %d)", v, kwcsrVersion)
	}
	n64 := binary.LittleEndian.Uint64(hdr[8:16])
	e64 := binary.LittleEndian.Uint64(hdr[16:24])
	flags := binary.LittleEndian.Uint64(hdr[24:32])
	if flags&^uint64(kwcsrHasWeights) != 0 {
		return nil, nil, fmt.Errorf("graphio: kwcsr container has unknown flags %#x", flags)
	}
	// Counts are validated before any size arithmetic: each bound keeps the
	// products below, computed in int, far from overflow — and decoding
	// streams through a fixed chunk, so a hostile header cannot balloon
	// memory beyond the arrays its own byte count admits.
	const maxCount = 1 << 31
	if n64 >= maxCount || e64 >= maxCount {
		return nil, nil, fmt.Errorf("graphio: kwcsr counts n=%d e=%d exceed limit %d", n64, e64, maxCount)
	}
	n, e := int(n64), int(e64)
	want, pad := containerSize(n, e, flags)
	truncated := func(err error) (*graph.Graph, []float64, error) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil, fmt.Errorf("graphio: kwcsr container is shorter than the %d bytes its header declares", want)
		}
		return nil, nil, fmt.Errorf("graphio: reading kwcsr container: %w", err)
	}
	// Fail closed before allocating: the arrays below are sized from the
	// header's counts, so when the source can report its size (files,
	// bytes/strings readers), a container shorter than its header declares
	// is rejected here — O(1) — instead of after an O(n+e) allocation that a
	// hostile header could size at gigabytes backed by a kilobyte file.
	if sz, ok := sourceSize(r); ok && sz < int64(want) {
		return truncated(io.ErrUnexpectedEOF)
	}

	// Decode streams the payload through a cache-sized chunk instead of
	// buffering the whole container: the bytes are touched once while hot
	// (hash + int32 conversion both read the chunk, not the file image),
	// which on large containers removes a full memory pass and the
	// container-sized allocation.
	cr := chunkReader{r: r, buf: make([]byte, 128<<10)}
	off := make([]int32, n+1)
	if err := cr.int32s(off); err != nil {
		return truncated(err)
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return nil, nil, fmt.Errorf("graphio: kwcsr offsets decrease at vertex %d", v)
		}
		if d := int(off[v+1] - off[v]); d > maxDeg {
			maxDeg = d
		}
	}
	if off[0] != 0 || int(off[n]) != e {
		return nil, nil, fmt.Errorf("graphio: kwcsr payload rejected: offsets span [%d,%d], want [0,%d]", off[0], off[n], e)
	}
	// Decode and validate the adjacency in one fused pass while each chunk
	// is cache-hot: rows must be strictly increasing (sorted,
	// duplicate-free), in range, with no self-loops — every producer of
	// canonical CSR guarantees it and downstream kernels assume it. The
	// offsets are already proven monotonic over [0, e], so the running row
	// cursor cannot escape adj. A content error is remembered rather than
	// aborting the stream, so a truncated container still reports
	// truncation first, exactly as a buffer-everything reader would.
	adj := make([]int32, e)
	// The digest's leaves hash each block's degrees and then its adjacency
	// span. The offsets are decoded and validated by now, so every leaf is
	// finished as its span streams through the chunk below.
	var leaves *leafWriter
	if verify {
		leaves = newDigestTree(n).streamLeaves(off)
		cr.h = leaves
	}
	var badContent error
	v, prev := 0, int32(-1)
	// rowFail reproduces the element-order, condition-order diagnostics of a
	// straightforward one-at-a-time validator; it only runs on the error
	// path, keeping the fast path's combined predicate branch-cheap.
	rowFail := func(i int, u, prev, vv int32) error {
		if u == vv {
			return fmt.Errorf("graphio: kwcsr self-loop at vertex %d", v)
		}
		if u <= prev {
			return fmt.Errorf("graphio: kwcsr adjacency row of vertex %d is not strictly increasing", v)
		}
		return fmt.Errorf("graphio: kwcsr payload rejected: adj[%d] = %d out of range [0,%d)", i, u, n)
	}
	err := cr.chunked(e*4, func(chunk []byte, base int) {
		if badContent != nil {
			return
		}
		// Decode and validate in one pairwise pass while the chunk is
		// cache-hot: rows must be strictly increasing (sorted,
		// duplicate-free), in range, with no self-loops — every producer of
		// canonical CSR guarantees it and downstream kernels assume it. The
		// row end is hoisted out of the inner loop (offsets are already
		// proven monotonic over [0, e], so the cursor cannot escape adj),
		// and prev survives a row straddling a chunk boundary because v
		// only advances here. Per pair, range is checked on u1 alone:
		// prev < u0 < u1 < n pins u0, and prev ≥ -1 pins both non-negative
		// (the unsigned compare catches a negative u1).
		i0 := base / 4
		hi := i0 + len(chunk)/4
		for i := i0; i < hi; {
			for i >= int(off[v+1]) {
				v++
				prev = -1
			}
			rowEnd := int(off[v+1])
			if rowEnd > hi {
				rowEnd = hi
			}
			vv := int32(v)
			for ; i+2 <= rowEnd; i += 2 {
				x := binary.LittleEndian.Uint64(chunk[(i-i0)*4:])
				u0, u1 := int32(uint32(x)), int32(x>>32)
				adj[i], adj[i+1] = u0, u1
				if u0 <= prev || u1 <= u0 || uint32(u1) >= uint32(n) || u0 == vv || u1 == vv {
					if u0 == vv || u0 <= prev || uint32(u0) >= uint32(n) {
						badContent = rowFail(i, u0, prev, vv)
					} else {
						badContent = rowFail(i+1, u1, u0, vv)
					}
					return
				}
				prev = u1
			}
			if i < rowEnd {
				u := int32(binary.LittleEndian.Uint32(chunk[(i-i0)*4:]))
				adj[i] = u
				if u == vv || u <= prev || uint32(u) >= uint32(n) {
					badContent = rowFail(i, u, prev, vv)
					return
				}
				prev = u
				i++
			}
		}
	})
	if err != nil {
		return truncated(err)
	}
	if badContent != nil {
		return nil, nil, badContent
	}
	cr.h = nil // padding and weights sit outside the digest
	// Padding is part of the format: it must be zero, so every byte of a
	// valid container is accounted for (the digest cannot cover it, it is
	// written after the digested arrays).
	var padBuf [8]byte
	if _, err := io.ReadFull(r, padBuf[:pad]); err != nil {
		return truncated(err)
	}
	for _, b := range padBuf[:pad] {
		if b != 0 {
			return nil, nil, fmt.Errorf("graphio: kwcsr padding bytes are not zero")
		}
	}
	var weights []float64
	if flags&kwcsrHasWeights != 0 {
		weights = make([]float64, n)
		if err := cr.float64s(weights); err != nil {
			return truncated(err)
		}
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return nil, nil, fmt.Errorf("graphio: kwcsr container is longer than the %d bytes its header declares", want)
	}
	if verify {
		// The leaves hashed the container's adjacency bytes chunk by chunk
		// above — no re-encoding of the decoded arrays.
		if [sha256.Size]byte(hdr[32:64]) != leaves.root() {
			return nil, nil, fmt.Errorf("graphio: kwcsr digest mismatch: container corrupt or hand-edited")
		}
	}
	// The loops above checked everything FromCSR would (span, monotonic
	// offsets, adjacency range) and computed ∆ along the way.
	return graph.FromCSRUnchecked(off, adj, maxDeg), weights, nil
}

// chunkReader streams fixed-size chunks from r, decoding each while it is
// cache-hot and (when h is set) folding it into the digest on the way.
type chunkReader struct {
	r   io.Reader
	buf []byte // length a multiple of 8
	h   io.Writer
}

func (c *chunkReader) chunked(total int, decode func(chunk []byte, base int)) error {
	for done := 0; done < total; {
		k := len(c.buf)
		if rem := total - done; rem < k {
			k = rem
		}
		if _, err := io.ReadFull(c.r, c.buf[:k]); err != nil {
			return err
		}
		if c.h != nil {
			c.h.Write(c.buf[:k])
		}
		decode(c.buf[:k], done)
		done += k
	}
	return nil
}

func (c *chunkReader) int32s(out []int32) error {
	return c.chunked(len(out)*4, func(chunk []byte, base int) {
		o := out[base/4:]
		for i := 0; i < len(chunk)/4; i++ {
			o[i] = int32(binary.LittleEndian.Uint32(chunk[i*4:]))
		}
	})
}

func (c *chunkReader) float64s(out []float64) error {
	return c.chunked(len(out)*8, func(chunk []byte, base int) {
		o := out[base/8:]
		for i := 0; i < len(chunk)/8; i++ {
			o[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[i*8:]))
		}
	})
}

// weightBytes is the size of the optional weights section.
func weightBytes(flags uint64, n int) int {
	if flags&kwcsrHasWeights != 0 {
		return n * 8
	}
	return 0
}

// containerSize returns the exact byte size a kwcsr container with the given
// header counts occupies, and its pad byte count — the single source of
// truth for the streaming readers' truncation checks and the mapped reader's
// fail-closed bounds check.
func containerSize(n, e int, flags uint64) (want, pad int) {
	body := (n + 1 + e) * 4
	want = kwcsrHeaderSize + body
	if rem := body % 8; rem != 0 {
		pad = 8 - rem
		want += pad
	}
	want += weightBytes(flags, n)
	return want, pad
}

// sourceSize reports the total size of a reader's backing source when it
// exposes one: os.File via Stat, bytes.Reader/strings.Reader via Size. Both
// report the source's full extent rather than the unread remainder, so the
// check using it is conservative — it can only reject containers that are
// certainly short, never valid ones.
func sourceSize(r io.Reader) (int64, bool) {
	switch s := r.(type) {
	case interface{ Size() int64 }:
		return s.Size(), true
	case interface{ Stat() (os.FileInfo, error) }:
		st, err := s.Stat()
		if err != nil || !st.Mode().IsRegular() {
			return 0, false
		}
		return st.Size(), true
	}
	return 0, false
}
