package graphio

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"unsafe"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

func binaryGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return map[string]*graph.Graph{
		"empty":      graph.MustNew(0, nil),
		"singleton":  graph.MustNew(1, nil),
		"isolated-5": graph.MustNew(5, nil),
		"path-2":     graph.MustNew(2, [][2]int{{0, 1}}),
		"gnp-150":    mk(gen.GNP(150, 0.05, 301)),
		"udg-400":    mk(gen.UnitDisk(400, 0.08, 302)),
		"grid-17x9":  mk(gen.Grid(17, 9)),
		"tree-333":   mk(gen.RandomTree(333, 303)),
	}
}

// A parserPath is one way container bytes reach the parser.
type parserPath struct {
	// read is how ReadBinaryCSR (verify set) and ReadBinaryCSRTrusted reach
	// it.
	read func(data []byte, verify bool) (*graph.Graph, []float64, error)
	// open is OpenMapped up to, not including, VerifyStructure.
	open func(t *testing.T, data []byte) (*MappedGraph, error)
}

// nativePath drives the three entry points as callers do: the two readers
// over a bytes.Reader, OpenMapped over a temp file.
var nativePath = parserPath{
	read: func(data []byte, verify bool) (*graph.Graph, []float64, error) {
		if verify {
			return ReadBinaryCSR(bytes.NewReader(data))
		}
		return ReadBinaryCSRTrusted(bytes.NewReader(data))
	},
	open: func(t *testing.T, data []byte) (*MappedGraph, error) {
		m, err := OpenMapped(writeTempContainer(t, data))
		if err == nil {
			t.Cleanup(func() { m.Close() })
		}
		return m, err
	},
}

// misalignedPath hands the parser a copy of the container one byte off a
// 4-byte boundary, past each entry point's I/O, so no array can alias it.
var misalignedPath = parserPath{
	read: func(data []byte, verify bool) (*graph.Graph, []float64, error) {
		return decodeBinaryCSR(misaligned(data), verify)
	},
	open: func(t *testing.T, data []byte) (*MappedGraph, error) {
		return parseMappedBytes(misaligned(data))
	},
}

func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+4)
	at := 1
	for uintptr(unsafe.Pointer(&buf[at]))%4 == 0 {
		at++
	}
	copy(buf[at:], data)
	return buf[at : at+len(data)]
}

// A kwcsrReader is one entry point into the parser.
type kwcsrReader struct {
	name     string
	verifies bool // recomputes the embedded digest
	read     func(t *testing.T, data []byte) (*graph.Graph, []float64, error)
}

// An entrySet selects the entry points a table drives.
type entrySet int

const (
	streamEntries entrySet = 1 << iota // ReadBinaryCSR and ReadBinaryCSRTrusted
	mappedEntries                      // OpenMapped
	allEntries    = streamEntries | mappedEntries
)

// readers returns, along p, ReadBinaryCSR and ReadBinaryCSRTrusted if set
// holds streamEntries, and OpenMapped followed by the VerifyStructure pass
// serve preloads run if it holds mappedEntries.
func (p parserPath) readers(set entrySet) []kwcsrReader {
	var rs []kwcsrReader
	if set&streamEntries != 0 {
		rs = append(rs,
			kwcsrReader{"ReadBinaryCSR", true, func(t *testing.T, data []byte) (*graph.Graph, []float64, error) {
				return p.read(data, true)
			}},
			kwcsrReader{"ReadBinaryCSRTrusted", false, func(t *testing.T, data []byte) (*graph.Graph, []float64, error) {
				return p.read(data, false)
			}})
	}
	if set&mappedEntries != 0 {
		rs = append(rs, kwcsrReader{"OpenMapped", false, func(t *testing.T, data []byte) (*graph.Graph, []float64, error) {
			m, err := p.open(t, data)
			if err != nil {
				return nil, nil, err
			}
			if err := m.VerifyStructure(); err != nil {
				return nil, nil, err
			}
			return m.Graph(), m.Weights(), nil
		}})
	}
	return rs
}

// TestBinaryCSRRoundTrip: write → read must reproduce the graph exactly —
// digest equality is the contract the serve path relies on — with and
// without a weight vector, through both streaming readers.
// TestMappedRoundTrip drives the same table through OpenMapped.
func TestBinaryCSRRoundTrip(t *testing.T) { checkRoundTrip(t, nativePath, streamEntries) }

func checkRoundTrip(t *testing.T, p parserPath, set entrySet) {
	for name, g := range binaryGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for _, r := range p.readers(set) {
				t.Run(r.name, func(t *testing.T) {
					for _, withWeights := range []bool{false, true} {
						var weights []float64
						if withWeights {
							weights = make([]float64, g.N())
							for i := range weights {
								weights[i] = 1 + float64(i%9)/4
							}
						}
						var buf bytes.Buffer
						if err := WriteBinaryCSR(&buf, g, weights); err != nil {
							t.Fatal(err)
						}
						got, gotW, err := r.read(t, buf.Bytes())
						if err != nil {
							t.Fatalf("weights=%v: %v", withWeights, err)
						}
						if Digest(got) != Digest(g) {
							t.Fatalf("weights=%v: digest changed across round trip", withWeights)
						}
						if got.N() != g.N() || got.M() != g.M() || got.MaxDegree() != g.MaxDegree() {
							t.Fatalf("shape changed: n=%d m=%d maxdeg=%d", got.N(), got.M(), got.MaxDegree())
						}
						if withWeights != (gotW != nil) || len(gotW) != len(weights) {
							t.Fatalf("weights: wrote %d, read %d (nil %v)", len(weights), len(gotW), gotW == nil)
						}
						for i := range gotW {
							if gotW[i] != weights[i] {
								t.Fatalf("weight[%d] = %v, wrote %v", i, gotW[i], weights[i])
							}
						}
					}
				})
			}
		})
	}
}

func TestWriteBinaryCSRValidation(t *testing.T) {
	if err := WriteBinaryCSR(&bytes.Buffer{}, nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
	g := graph.MustNew(3, [][2]int{{0, 1}})
	if err := WriteBinaryCSR(&bytes.Buffer{}, g, []float64{1}); err == nil {
		t.Error("short weight vector accepted")
	}
}

// validContainer builds a known-good container to corrupt.
func validContainer(t *testing.T) []byte {
	t.Helper()
	g, err := gen.GNP(64, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryCSR(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryCSRRejection drives every rejection path through both
// streaming readers: each corruption must fail closed with a diagnosable
// error, never load a wrong graph. TestMappedRejection drives the same
// table through OpenMapped.
func TestBinaryCSRRejection(t *testing.T) { checkRejection(t, nativePath, streamEntries) }

func checkRejection(t *testing.T, p parserPath, set entrySet) {
	base := validContainer(t)
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string // error substring
		// digestOnly: the payload is intact, so only a reader that
		// recomputes the digest refuses it; the others load the graph.
		digestOnly bool
	}{
		{"empty", nil, "truncated", false},
		{"truncated header", base[:17], "truncated", false},
		{"bad magic", mut(func(b []byte) { b[0] = 'X' }), "bad magic", false},
		{"wrong version", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 9) }), "version 9", false},
		// Version 1 embedded a flat CSR hash, not the digest-tree root.
		{"version 1", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 1) }), "version 1", false},
		{"unknown flags", mut(func(b []byte) { b[24] = 0xFF }), "unknown flags", false},
		{"overflowing n", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[8:16], 1<<40) }), "exceed limit", false},
		{"overflowing e", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<62) }), "exceed limit", false},
		// Header counts far beyond the actual size must be rejected by
		// arithmetic alone, not by faulting on a short mapping.
		{"undersized for declared counts", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<30) }), "shorter than", false},
		{"truncated payload", base[:len(base)-5], "shorter than", false},
		{"trailing garbage", append(append([]byte(nil), base...), 0, 0, 0), "longer than", false},
		{"digest tampered", mut(func(b []byte) { b[40] ^= 1 }), "digest mismatch", true},
		{"payload tampered", mut(func(b []byte) { b[len(b)-1] ^= 1 }), "", false}, // any rejection is fine
	}
	want, _, err := p.read(base, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range p.readers(set) {
				t.Run(r.name, func(t *testing.T) {
					g, _, err := r.read(t, tc.data)
					if tc.digestOnly && !r.verifies {
						if err != nil {
							t.Fatalf("refused an intact payload: %v", err)
						}
						if Digest(g) != Digest(want) {
							t.Fatal("loaded a different graph")
						}
						return
					}
					if err == nil {
						t.Fatal("corrupt container accepted")
					}
					if !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("error %q does not mention %q", err, tc.want)
					}
				})
			}
		})
	}
}

// craftContainer writes a container around arbitrary arrays, with the
// digest computed over them.
func craftContainer(n int, off, adj []int32) []byte {
	var buf bytes.Buffer
	var hdr [kwcsrHeaderSize]byte
	copy(hdr[0:6], kwcsrMagic)
	binary.LittleEndian.PutUint16(hdr[6:8], kwcsrVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(adj)))
	sum := csrDigest(n, off, adj)
	copy(hdr[32:64], sum[:])
	buf.Write(hdr[:])
	writeInt32LE(&buf, off)
	writeInt32LE(&buf, adj)
	if pad := (len(off) + len(adj)) * 4 % 8; pad != 0 {
		buf.Write(make([]byte, 8-pad))
	}
	return buf.Bytes()
}

// TestBinaryCSRStructuralRejection hand-crafts containers whose digests are
// valid over structurally bad arrays — the digest binds content, it must
// not launder invalid topology — and both streaming readers must refuse
// them. TestMappedStructuralRejection drives the same table through
// OpenMapped.
func TestBinaryCSRStructuralRejection(t *testing.T) {
	checkStructuralRejection(t, nativePath, streamEntries)
}

// checkStructuralRejection also checks, when set holds mappedEntries, that
// OpenMapped refuses offset faults at open (offsets slice the mapping
// everywhere downstream) but opens a container with bad rows, since the
// open is O(n) by design; its deferred, memoized VerifyStructure refuses
// those.
func checkStructuralRejection(t *testing.T, p parserPath, set entrySet) {
	cases := []struct {
		name   string
		n      int
		off    []int32
		adj    []int32
		want   string
		atOpen bool // OpenMapped itself refuses it, before VerifyStructure
	}{
		{"self-loop", 2, []int32{0, 1, 2}, []int32{0, 0}, "self-loop", false},
		{"unsorted row", 3, []int32{0, 2, 3, 4}, []int32{2, 1, 0, 0}, "strictly increasing", false},
		{"duplicate neighbor", 3, []int32{0, 2, 3, 4}, []int32{1, 1, 0, 0}, "strictly increasing", false},
		{"decreasing offsets", 2, []int32{0, 2, 1}, []int32{1}, "offsets decrease", true},
		{"bad first offset", 1, []int32{1, 0}, nil, "payload rejected", true},
		{"neighbor out of range", 2, []int32{0, 1, 2}, []int32{5, 0}, "kwcsr payload rejected", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := craftContainer(tc.n, tc.off, tc.adj)
			for _, r := range p.readers(set) {
				t.Run(r.name, func(t *testing.T) {
					_, _, err := r.read(t, data)
					if err == nil {
						t.Fatal("structurally invalid container accepted")
					}
					if !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("error %q does not mention %q", err, tc.want)
					}
				})
			}
			if set&mappedEntries == 0 {
				return
			}
			m, err := p.open(t, data)
			if tc.atOpen != (err != nil) {
				t.Fatalf("OpenMapped: err = %v, want a refusal at open: %v", err, tc.atOpen)
			}
			if err == nil {
				first, second := m.VerifyStructure(), m.VerifyStructure()
				if second == nil || second.Error() != first.Error() {
					t.Fatalf("VerifyStructure not memoized: first %v, second %v", first, second)
				}
			}
		})
	}
}

// TestCopyDecode runs the round-trip and rejection tables, through every
// entry point, along the parser's copy-decode branch, the one every read
// takes on a big-endian host: once with hostLittleEndian switched off, once
// on a buffer one byte off alignment.
func TestCopyDecode(t *testing.T) {
	tables := []struct {
		name  string
		check func(*testing.T, parserPath, entrySet)
	}{
		{"round trip", checkRoundTrip},
		{"rejection", checkRejection},
		{"structural rejection", checkStructuralRejection},
	}
	t.Run("big-endian", func(t *testing.T) {
		saved := hostLittleEndian
		hostLittleEndian = false
		t.Cleanup(func() { hostLittleEndian = saved })
		for _, tab := range tables {
			t.Run(tab.name, func(t *testing.T) { tab.check(t, nativePath, allEntries) })
		}
	})
	t.Run("misaligned", func(t *testing.T) {
		for _, tab := range tables {
			t.Run(tab.name, func(t *testing.T) { tab.check(t, misalignedPath, allEntries) })
		}
	})
}

// TestBinaryCSRTrusted pins the trusted reader's semantics: identical
// output on valid containers, identical structural rejection, but no digest
// recompute — a tampered digest field is the one corruption it admits.
func TestBinaryCSRTrusted(t *testing.T) {
	base := validContainer(t)
	g, _, err := ReadBinaryCSRTrusted(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ReadBinaryCSR(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if Digest(g) != Digest(want) {
		t.Fatal("trusted read produced a different graph")
	}

	structural := append([]byte(nil), base...)
	structural = structural[:len(structural)-5] // truncate: structural checks still run
	if _, _, err := ReadBinaryCSRTrusted(bytes.NewReader(structural)); err == nil {
		t.Error("trusted read accepted a truncated container")
	}

	// A version 1 container's digest is not a tree root; skipping the
	// digest must not let it through.
	v1 := append([]byte(nil), base...)
	binary.LittleEndian.PutUint16(v1[6:8], 1)
	if _, _, err := ReadBinaryCSRTrusted(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("trusted read of a version 1 container: err = %v, want a version error", err)
	}

	tampered := append([]byte(nil), base...)
	tampered[40] ^= 1 // digest field only; payload untouched
	if _, _, err := ReadBinaryCSR(bytes.NewReader(tampered)); err == nil {
		t.Error("verifying read accepted a tampered digest")
	}
	g2, _, err := ReadBinaryCSRTrusted(bytes.NewReader(tampered))
	if err != nil {
		t.Errorf("trusted read rejects by digest: %v", err)
	}
	if g2 == nil || Digest(g2) != Digest(want) {
		t.Error("trusted read of an intact payload changed the graph")
	}
}

// FuzzBinaryCSR: arbitrary bytes must never panic a reader; the verifying
// reader accepts nothing the trusted one refuses; and every graph the
// trusted reader accepts must re-encode and read back, verified, to an
// equal digest and equal weights.
func FuzzBinaryCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(kwcsrMagic))
	seed := validContainerBytes()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	tampered := append([]byte(nil), seed...)
	tampered[40] ^= 1
	f.Add(tampered)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, weights, err := ReadBinaryCSRTrusted(bytes.NewReader(data))
		if _, _, verr := ReadBinaryCSR(bytes.NewReader(data)); err != nil {
			if verr == nil {
				t.Fatalf("verifying read accepted what the trusted read refused: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteBinaryCSR(&buf, g, weights); err != nil {
			t.Fatalf("re-encoding a successfully read graph failed: %v", err)
		}
		g2, w2, err := ReadBinaryCSR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a re-encoded graph failed: %v", err)
		}
		if Digest(g2) != Digest(g) {
			t.Fatal("round trip changed the digest")
		}
		if len(w2) != len(weights) || (w2 == nil) != (weights == nil) {
			t.Fatalf("round trip changed the weights: %d → %d", len(weights), len(w2))
		}
		for i := range w2 {
			if math.Float64bits(w2[i]) != math.Float64bits(weights[i]) {
				t.Fatalf("weight[%d]: %v → %v", i, weights[i], w2[i])
			}
		}
	})
}

// validContainerBytes is validContainer without the *testing.T (fuzz seeds
// run outside a test context).
func validContainerBytes() []byte {
	g, err := gen.GNP(32, 0.1, 7)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryCSR(&buf, g, nil); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
