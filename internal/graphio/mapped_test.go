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

// TestMappedRoundTrip: OpenMapped, with the VerifyStructure pass serve
// preloads run, must expose the same graph and weights the streaming
// readers decode (the TestBinaryCSRRoundTrip table).
func TestMappedRoundTrip(t *testing.T) { checkRoundTrip(t, nativePath, mappedEntries) }

// TestMappedRejection drives the streaming readers' corruption table through
// OpenMapped and VerifyStructure: every malformed container must fail
// closed, never load a wrong graph; a tampered digest field alone opens
// (TestMappedLazyDigest catches it).
func TestMappedRejection(t *testing.T) { checkRejection(t, nativePath, mappedEntries) }

// TestMappedStructuralRejection: digests computed over structurally bad
// arrays must not launder invalid topology through OpenMapped either.
// Offset faults fail at open; row-content faults open and are caught by
// the deferred, memoized VerifyStructure pass.
func TestMappedStructuralRejection(t *testing.T) {
	checkStructuralRejection(t, nativePath, mappedEntries)
}

// TestMappedLazyDigest pins the trust split: OpenMapped hands out the
// embedded digest without recomputing it, an intact container passes
// VerifyDigest, and a tampered digest FIELD opens fine (the open path
// never hashes) and is caught by VerifyDigest.
func TestMappedLazyDigest(t *testing.T) {
	base := validContainer(t)
	m, err := OpenMapped(writeTempContainer(t, base))
	if err != nil {
		t.Fatal(err)
	}
	if m.Digest() != DigestRaw(m.Graph()) {
		t.Fatal("embedded digest accessor differs from the computed digest")
	}
	if err := m.VerifyDigest(); err != nil {
		t.Fatalf("VerifyDigest on an intact container: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	tampered := append([]byte(nil), base...)
	tampered[40] ^= 1
	m, err = OpenMapped(writeTempContainer(t, tampered))
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
