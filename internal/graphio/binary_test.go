package graphio

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

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

// TestBinaryCSRRoundTrip: write → read must reproduce the graph exactly —
// digest equality is the contract the serve path relies on — with and
// without a weight vector.
func TestBinaryCSRRoundTrip(t *testing.T) {
	for name, g := range binaryGraphs(t) {
		t.Run(name, func(t *testing.T) {
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
				got, gotW, err := ReadBinaryCSR(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("weights=%v: %v", withWeights, err)
				}
				if Digest(got) != Digest(g) {
					t.Fatalf("weights=%v: digest changed across round trip", withWeights)
				}
				if got.N() != g.N() || got.M() != g.M() || got.MaxDegree() != g.MaxDegree() {
					t.Fatalf("shape changed: n=%d m=%d maxdeg=%d", got.N(), got.M(), got.MaxDegree())
				}
				if withWeights != (gotW != nil) {
					t.Fatalf("weights presence: wrote %v, read %v", withWeights, gotW != nil)
				}
				for i := range gotW {
					if gotW[i] != weights[i] {
						t.Fatalf("weight[%d] = %v, wrote %v", i, gotW[i], weights[i])
					}
				}
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

// TestBinaryCSRRejection drives every rejection path: each corruption must
// fail loudly with a diagnosable error, never load a wrong graph.
func TestBinaryCSRRejection(t *testing.T) {
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
	}{
		{"empty", nil, "truncated"},
		{"truncated header", base[:17], "truncated"},
		{"bad magic", mut(func(b []byte) { b[0] = 'X' }), "bad magic"},
		{"wrong version", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 9) }), "version 9"},
		// Version 1 embedded a flat CSR hash, not the digest-tree root.
		{"version 1", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 1) }), "version 1"},
		{"unknown flags", mut(func(b []byte) { b[24] = 0xFF }), "unknown flags"},
		{"overflowing n", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[8:16], 1<<40) }), "exceed limit"},
		{"overflowing e", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<62) }), "exceed limit"},
		{"truncated payload", base[:len(base)-5], "declares"},
		{"trailing garbage", append(append([]byte(nil), base...), 0, 0, 0), "declares"},
		{"digest tampered", mut(func(b []byte) { b[40] ^= 1 }), "digest mismatch"},
		{"payload tampered", mut(func(b []byte) { b[len(b)-1] ^= 1 }), ""}, // any rejection is fine
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadBinaryCSR(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt container accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBinaryCSRStructuralRejection hand-crafts containers whose digests are
// valid over structurally bad arrays — the digest binds content, it must
// not launder invalid topology.
func TestBinaryCSRStructuralRejection(t *testing.T) {
	craft := func(n int, off, adj []int32) []byte {
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
	cases := []struct {
		name string
		n    int
		off  []int32
		adj  []int32
		want string
	}{
		{"self-loop", 2, []int32{0, 1, 2}, []int32{0, 0}, "self-loop"},
		{"unsorted row", 3, []int32{0, 2, 3, 4}, []int32{2, 1, 0, 0}, "strictly increasing"},
		{"duplicate neighbor", 3, []int32{0, 2, 3, 4}, []int32{1, 1, 0, 0}, "strictly increasing"},
		{"decreasing offsets", 2, []int32{0, 2, 1}, []int32{1}, "offsets decrease"},
		{"bad first offset", 1, []int32{1, 0}, nil, "offsets decrease"},
		{"neighbor out of range", 2, []int32{0, 1, 2}, []int32{5, 0}, "kwcsr payload rejected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := craft(tc.n, tc.off, tc.adj)
			_, _, err := ReadBinaryCSR(bytes.NewReader(data))
			if err == nil {
				t.Fatal("structurally invalid container accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
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

// FuzzBinaryCSR: arbitrary bytes must never panic the reader, and every
// successfully read graph must round-trip back to an equal digest.
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
		// Mapped-path lockstep: open + VerifyStructure must accept exactly
		// what the trusted streaming reader accepts (both skip the digest
		// recompute, both reject structural and size corruption — the
		// mapped path merely splits the row checks into the deferred
		// VerifyStructure), and on acceptance produce the same graph.
		// Neither may panic.
		tg, tw, terr := ReadBinaryCSRTrusted(bytes.NewReader(data))
		m, merr := parseMappedBytes(append([]byte(nil), data...))
		if merr == nil && m.VerifyStructure() != nil {
			merr = m.VerifyStructure()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m = nil
		}
		if (terr == nil) != (merr == nil) {
			t.Fatalf("trusted/mapped disagree: trusted err=%v, mapped err=%v", terr, merr)
		}
		if merr == nil {
			if Digest(m.Graph()) != Digest(tg) {
				t.Fatal("mapped graph differs from trusted read")
			}
			if (m.Weights() == nil) != (tw == nil) || len(m.Weights()) != len(tw) {
				t.Fatalf("mapped weights shape %d differs from trusted %d", len(m.Weights()), len(tw))
			}
			for i := range tw {
				if m.Weights()[i] != tw[i] {
					t.Fatalf("mapped weight[%d] = %v, trusted %v", i, m.Weights()[i], tw[i])
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}

		g, weights, err := ReadBinaryCSR(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinaryCSR(&buf, g, weights); err != nil {
			t.Fatalf("re-encoding a successfully read graph failed: %v", err)
		}
		g2, _, err := ReadBinaryCSR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a re-encoded graph failed: %v", err)
		}
		if Digest(g2) != Digest(g) {
			t.Fatal("round trip changed the digest")
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
