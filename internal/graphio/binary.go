package graphio

import (
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
// the embedded digest (a full SHA-256 pass over the adjacency). Every
// structural validation still runs — a trusted read can never produce a
// graph that violates CSR invariants, only one whose bytes were altered
// consistently. Use it when the caller verifies the digest itself or the
// container comes from a trusted producer; the bench harness's load loop
// does, digest-checking every load outside its timed window.
func ReadBinaryCSRTrusted(r io.Reader) (*graph.Graph, []float64, error) {
	return readBinaryCSR(r, false)
}

// readBinaryCSR reads the header, then exactly the container it declares
// into one buffer, and hands that buffer to the parser OpenMapped uses.
func readBinaryCSR(r io.Reader, verify bool) (*graph.Graph, []float64, error) {
	var hdr [kwcsrHeaderSize]byte
	got, err := readUpTo(r, hdr[:])
	if err != nil {
		return nil, nil, err
	}
	h, err := parseHeader(hdr[:got])
	if err != nil {
		return nil, nil, err
	}
	// Fail closed before allocating: the buffer below is sized from the
	// header's counts, so when the source can report its size (files,
	// bytes/strings readers), a container shorter than its header declares
	// is rejected here — O(1) — instead of after an allocation that a
	// hostile header could size at gigabytes backed by a kilobyte file.
	if sz, ok := sourceSize(r); ok && sz < int64(h.size) {
		return nil, nil, h.checkSize(int(sz))
	}
	// One byte past the declared size is asked for too, so the parser sees
	// (and refuses) trailing data.
	data := make([]byte, h.size+1)
	copy(data, hdr[:])
	got, err = readUpTo(r, data[kwcsrHeaderSize:])
	if err != nil {
		return nil, nil, err
	}
	return decodeBinaryCSR(data[:kwcsrHeaderSize+got], verify)
}

// decodeBinaryCSR parses a whole container held in memory and runs the
// checks the parser leaves to its caller: the adjacency rows, and the
// digest when verify is set. The graph and weights alias data.
func decodeBinaryCSR(data []byte, verify bool) (*graph.Graph, []float64, error) {
	m, err := parseMappedBytes(data)
	if err != nil {
		return nil, nil, err
	}
	if err := m.VerifyStructure(); err != nil {
		return nil, nil, err
	}
	if verify {
		if err := m.VerifyDigest(); err != nil {
			return nil, nil, err
		}
	}
	return m.Graph(), m.Weights(), nil
}

// readUpTo fills p from r and reports how many bytes it got. The end of
// the stream is not an error here: the parser names a short container.
func readUpTo(r io.Reader, p []byte) (int, error) {
	n, err := io.ReadFull(r, p)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return n, fmt.Errorf("graphio: reading kwcsr container: %w", err)
	}
	return n, nil
}

// kwcsrHeader is a header that passed every check needing no payload byte.
type kwcsrHeader struct {
	n, e  int
	flags uint64
	size  int // the container's exact byte size
	pad   int // zero bytes between adj and the weights
}

// parseHeader checks the header at the front of data: its length, magic,
// version, flags and count limits. Counts are validated before any size
// arithmetic: each bound keeps the products below, computed in int, far
// from overflow.
func parseHeader(data []byte) (kwcsrHeader, error) {
	var h kwcsrHeader
	if len(data) < kwcsrHeaderSize {
		return h, fmt.Errorf("graphio: kwcsr container truncated: %d bytes, header is %d", len(data), kwcsrHeaderSize)
	}
	if string(data[0:6]) != kwcsrMagic {
		return h, fmt.Errorf("graphio: not a kwcsr container (bad magic %q)", data[0:6])
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v != kwcsrVersion {
		return h, fmt.Errorf("graphio: unsupported kwcsr version %d (want %d)", v, kwcsrVersion)
	}
	n64 := binary.LittleEndian.Uint64(data[8:16])
	e64 := binary.LittleEndian.Uint64(data[16:24])
	h.flags = binary.LittleEndian.Uint64(data[24:32])
	if h.flags&^uint64(kwcsrHasWeights) != 0 {
		return h, fmt.Errorf("graphio: kwcsr container has unknown flags %#x", h.flags)
	}
	const maxCount = 1 << 31
	if n64 >= maxCount || e64 >= maxCount {
		return h, fmt.Errorf("graphio: kwcsr counts n=%d e=%d exceed limit %d", n64, e64, maxCount)
	}
	h.n, h.e = int(n64), int(e64)
	body := (h.n + 1 + h.e) * 4
	if rem := body % 8; rem != 0 {
		h.pad = 8 - rem
	}
	h.size = kwcsrHeaderSize + body + h.pad
	if h.flags&kwcsrHasWeights != 0 {
		h.size += h.n * 8
	}
	return h, nil
}

// checkSize refuses a container of have bytes unless it is exactly the
// size its header declares.
func (h kwcsrHeader) checkSize(have int) error {
	switch {
	case have < h.size:
		return fmt.Errorf("graphio: kwcsr container is shorter than the %d bytes its header declares", h.size)
	case have > h.size:
		return fmt.Errorf("graphio: kwcsr container is longer than the %d bytes its header declares", h.size)
	}
	return nil
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
