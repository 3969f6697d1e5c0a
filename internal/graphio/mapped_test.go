package graphio

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kwmds/internal/gen"
)

func writeTempContainer(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.kwcsr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedRoundTrip: OpenMapped must expose the same graph (and weights)
// the streaming readers decode, with the container's digest available
// without recompute and verifiable on demand.
func TestMappedRoundTrip(t *testing.T) {
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
				m, err := OpenMapped(writeTempContainer(t, buf.Bytes()))
				if err != nil {
					t.Fatalf("weights=%v: %v", withWeights, err)
				}
				got := m.Graph()
				if got.N() != g.N() || got.M() != g.M() || got.MaxDegree() != g.MaxDegree() {
					t.Fatalf("shape changed: n=%d m=%d maxdeg=%d", got.N(), got.M(), got.MaxDegree())
				}
				if Digest(got) != Digest(g) {
					t.Fatal("mapped graph digest differs from source")
				}
				if m.Digest() != Digest(g) {
					t.Fatal("embedded digest accessor differs from computed digest")
				}
				if err := m.VerifyDigest(); err != nil {
					t.Fatalf("VerifyDigest on intact container: %v", err)
				}
				if err := m.VerifyStructure(); err != nil {
					t.Fatalf("VerifyStructure on intact container: %v", err)
				}
				if withWeights != (m.Weights() != nil && len(m.Weights()) == g.N()) {
					t.Fatalf("weights presence: wrote %v, mapped %v", withWeights, m.Weights() != nil)
				}
				for i, w := range m.Weights() {
					if w != weights[i] {
						t.Fatalf("weight[%d] = %v, wrote %v", i, w, weights[i])
					}
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestMappedRejection drives the streaming readers' corruption table through
// the mapped path: every malformed container must fail closed at open —
// before any payload byte is aliased — never yield a handle.
func TestMappedRejection(t *testing.T) {
	base := validContainer(t)
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"truncated header", base[:17], "truncated"},
		{"bad magic", mut(func(b []byte) { b[0] = 'X' }), "bad magic"},
		{"wrong version", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 9) }), "version 9"},
		{"version 1", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 1) }), "version 1"},
		{"unknown flags", mut(func(b []byte) { b[24] = 0xFF }), "unknown flags"},
		{"overflowing n", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[8:16], 1<<40) }), "exceed limit"},
		{"overflowing e", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<62) }), "exceed limit"},
		// The fail-closed bounds check: header counts far beyond the actual
		// file size must be rejected by arithmetic alone, not by faulting on
		// a short mapping.
		{"undersized for declared counts", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<30) }), "shorter than"},
		{"truncated payload", base[:len(base)-5], "shorter than"},
		{"trailing garbage", append(append([]byte(nil), base...), 0, 0, 0), "longer than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := OpenMapped(writeTempContainer(t, tc.data))
			if err == nil {
				m.Close()
				t.Fatal("corrupt container accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMappedStructuralRejection: digests recomputed over structurally bad
// arrays must not launder invalid topology through the mapped path either.
// Offset violations fail at open (offsets are load-bearing for every later
// slice of the mapping); adjacency-content violations open fine — the open
// is O(n) by design — and are caught by the deferred VerifyStructure pass.
func TestMappedStructuralRejection(t *testing.T) {
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
		name   string
		n      int
		off    []int32
		adj    []int32
		want   string
		atOpen bool // rejected by OpenMapped itself vs by VerifyStructure
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
			m, err := OpenMapped(writeTempContainer(t, craft(tc.n, tc.off, tc.adj)))
			if tc.atOpen {
				if err == nil {
					m.Close()
					t.Fatal("offset-invalid container accepted at open")
				}
			} else {
				if err != nil {
					t.Fatalf("row-content corruption should defer to VerifyStructure, open rejected: %v", err)
				}
				defer m.Close()
				err = m.VerifyStructure()
				if err == nil {
					t.Fatal("structurally invalid container passed VerifyStructure")
				}
				// Memoized: the second call must return the same verdict.
				if err2 := m.VerifyStructure(); err2 == nil || err2.Error() != err.Error() {
					t.Fatalf("VerifyStructure not memoized: first %v, second %v", err, err2)
				}
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMappedLazyDigest pins the trust split: a tampered digest FIELD opens
// fine (the open path never hashes) and is caught by VerifyDigest.
func TestMappedLazyDigest(t *testing.T) {
	base := validContainer(t)
	tampered := append([]byte(nil), base...)
	tampered[40] ^= 1
	m, err := OpenMapped(writeTempContainer(t, tampered))
	if err != nil {
		t.Fatalf("open rejects by digest, should defer: %v", err)
	}
	defer m.Close()
	if err := m.VerifyDigest(); err == nil {
		t.Fatal("VerifyDigest accepted a tampered digest field")
	}
}

// TestMappedLifetime exercises the reference counting that pins the mapping
// across concurrent use: Close with a Retain outstanding must keep the graph
// readable until the Release; double Close errors; Retain after the last
// reference fails.
func TestMappedLifetime(t *testing.T) {
	g, err := gen.GNP(128, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryCSR(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(writeTempContainer(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Retain() {
		t.Fatal("Retain on an open handle failed")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The solve-in-flight window: owner closed, one reference outstanding.
	// Touch every byte of the CSR — an unmapped page would fault here.
	off, adj := m.Graph().CSR()
	var sum int64
	for _, o := range off {
		sum += int64(o)
	}
	for _, u := range adj {
		sum += int64(u)
	}
	if sum == 0 && g.M() > 0 {
		t.Fatal("mapped CSR read as all zeros")
	}
	if err := m.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
	m.Release()
	if m.Retain() {
		t.Fatal("Retain succeeded after the last reference dropped")
	}
}

// TestStreamingReaderFailClosed: a header declaring counts far beyond the
// source's actual size must be rejected by the size check — for sources
// that expose their size — rather than allocating count-derived arrays.
func TestStreamingReaderFailClosed(t *testing.T) {
	base := validContainer(t)
	huge := append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<29) // n: ~2 GiB of offsets
	binary.LittleEndian.PutUint64(huge[16:24], 1<<30)

	if _, _, err := ReadBinaryCSR(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "shorter than") {
		t.Fatalf("bytes.Reader: got %v, want prompt fail-closed rejection", err)
	}
	f, err := os.Open(writeTempContainer(t, huge))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := ReadBinaryCSRTrusted(f); err == nil || !strings.Contains(err.Error(), "shorter than") {
		t.Fatalf("os.File: got %v, want prompt fail-closed rejection", err)
	}
}
