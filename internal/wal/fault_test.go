package wal

// Fault-injection writer: every corruption class a disk or a crashed
// writer can produce — short writes, torn frames, bit flips in payload,
// CRC, length or header, reordered and duplicated tails, digest-mismatched
// records, a corrupted snapshot — applied to a copy of a valid history.
// Each row states the typed error recovery must refuse with; the only row
// recovery tolerates (lax policy) is the torn final frame, which by the
// durable-before-ack contract was never acknowledged. This is the kwcsr
// corruption-rejection table (PR 6) for the log layer.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// flipByte XORs one byte of a file at off.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixHeaderCRC recomputes the log header CRC after a deliberate field edit,
// so the corruption under test is the field, not the checksum.
func fixHeaderCRC(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[56:], crc32.Checksum(data[:56], castagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// setLogVersion rewrites the log header's version field, CRC fixed up, so
// only the version check can refuse it.
func setLogVersion(t *testing.T, path string, version uint32) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], version)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fixHeaderCRC(t, path)
}

// appendRawFrame appends one hand-built frame (with a correct CRC) to the
// log, bypassing Append's ordering checks — a hostile or buggy writer.
func appendRawFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	frame := make([]byte, framePrefixBytes+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[framePrefixBytes:], payload)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionRejectionTable(t *testing.T) {
	w := churnWorkload{name: "fault", n: 40, epochs: 5, seed: 9, radius: 0.25, speed: 0.06, weightsEvery: 2}
	src := t.TempDir()
	res := driveChurn(t, src, w, noSnapshots)
	if err := res.log.Close(); err != nil {
		t.Fatal(err)
	}
	last := len(res.states) - 1
	lastDigest := res.states[last].digest
	logFile := logName(0)
	snapFile := snapName(0)

	// encodeTamperedRecord builds a structurally valid, CRC-correct record
	// frame for epoch last+1 with the given digests — the corruption the
	// CRC cannot catch, which is exactly what the digest chain is for.
	tamperedPayload := func(pre, post [digestBytes]byte) []byte {
		r := &Record{Epoch: int64(last + 1), Pre: pre, Post: post}
		buf := r.appendFrame(nil)
		return buf[framePrefixBytes:]
	}
	var wrongDigest [digestBytes]byte
	wrongDigest[0] = 0xAB

	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantErr error // nil = any error is acceptable (non-WAL layer refuses)
		laxOK   bool  // true: the default policy recovers (torn tail only)
	}{
		{
			name: "payload bit flip in a middle record",
			corrupt: func(t *testing.T, dir string) {
				flipByte(t, filepath.Join(dir, logFile), res.offsets[1]+framePrefixBytes+16)
			},
			wantErr: ErrCorruptRecord,
		},
		{
			name: "CRC field bit flip",
			corrupt: func(t *testing.T, dir string) {
				flipByte(t, filepath.Join(dir, logFile), res.offsets[1]+4)
			},
			wantErr: ErrCorruptRecord,
		},
		{
			name: "length prefix corrupted to a huge value",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, logFile)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(data[res.offsets[1]:], 1<<30)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: ErrRecordTooLarge,
		},
		{
			name: "short write: torn final frame",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Truncate(filepath.Join(dir, logFile), res.offsets[last]-3); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: ErrTornTail,
			laxOK:   true,
		},
		{
			name: "short write: only a partial length prefix",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Truncate(filepath.Join(dir, logFile), res.offsets[last-1]+3); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: ErrTornTail,
			laxOK:   true,
		},
		{
			name: "reordered tail: last two records swapped",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, logFile)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				a0, a1, a2 := res.offsets[last-2], res.offsets[last-1], res.offsets[last]
				swapped := append([]byte(nil), data[:a0]...)
				swapped = append(swapped, data[a1:a2]...)
				swapped = append(swapped, data[a0:a1]...)
				if err := os.WriteFile(path, swapped, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: ErrEpochOrder,
		},
		{
			name: "duplicated final record",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, logFile)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				dup := append(data, data[res.offsets[last-1]:res.offsets[last]]...)
				if err := os.WriteFile(path, dup, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: ErrEpochOrder,
		},
		{
			name: "CRC-valid record with a mismatched pre-digest",
			corrupt: func(t *testing.T, dir string) {
				appendRawFrame(t, filepath.Join(dir, logFile), tamperedPayload(wrongDigest, lastDigest))
			},
			wantErr: ErrDigestMismatch,
		},
		{
			name: "CRC-valid record with a mismatched post-digest",
			corrupt: func(t *testing.T, dir string) {
				// An empty epoch keeps the digest, so claiming any other
				// post-digest must be refused.
				appendRawFrame(t, filepath.Join(dir, logFile), tamperedPayload(lastDigest, wrongDigest))
			},
			wantErr: ErrDigestMismatch,
		},
		{
			name: "CRC-valid record whose payload is shorter than a header",
			corrupt: func(t *testing.T, dir string) {
				appendRawFrame(t, filepath.Join(dir, logFile), []byte{1, 2, 3, 4})
			},
			wantErr: ErrCorruptRecord,
		},
		{
			name: "CRC-valid record with epoch zero",
			corrupt: func(t *testing.T, dir string) {
				r := &Record{Epoch: int64(last + 1), Pre: lastDigest, Post: lastDigest}
				payload := r.appendFrame(nil)[framePrefixBytes:]
				binary.LittleEndian.PutUint64(payload[0:], 0)
				appendRawFrame(t, filepath.Join(dir, logFile), payload)
			},
			wantErr: ErrCorruptRecord,
		},
		{
			name: "CRC-valid record removing an absent edge",
			corrupt: func(t *testing.T, dir string) {
				r := &Record{Epoch: int64(last + 1), Pre: lastDigest, Post: lastDigest,
					Rems: [][2]int32{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}}}
				// Removing the complete K4 over vertices 0..3 cannot match
				// any unit-disk epoch here; Commit must refuse.
				appendRawFrame(t, filepath.Join(dir, logFile), r.appendFrame(nil)[framePrefixBytes:])
			},
			wantErr: nil, // ErrCorruptRecord or ErrDigestMismatch, both fail closed
		},
		{
			name: "log header: bad magic",
			corrupt: func(t *testing.T, dir string) {
				flipByte(t, filepath.Join(dir, logFile), 0)
			},
			wantErr: ErrBadHeader,
		},
		{
			name: "log header: unknown version",
			corrupt: func(t *testing.T, dir string) {
				setLogVersion(t, filepath.Join(dir, logFile), walVersion+1)
			},
			wantErr: ErrBadHeader,
		},
		{
			// Version 1 logs carry flat CSR hashes, not digest-tree roots:
			// they fail closed at the version check, not at a digest.
			name: "log header: version 1",
			corrupt: func(t *testing.T, dir string) {
				setLogVersion(t, filepath.Join(dir, logFile), 1)
			},
			wantErr: ErrBadHeader,
		},
		{
			name: "log header: nonzero reserved flags",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, logFile)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(data[12:], 1)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				fixHeaderCRC(t, path)
			},
			wantErr: ErrBadHeader,
		},
		{
			name: "log header: CRC bit flip",
			corrupt: func(t *testing.T, dir string) {
				flipByte(t, filepath.Join(dir, logFile), 57)
			},
			wantErr: ErrBadHeader,
		},
		{
			name: "log header: base epoch disagrees with the snapshot",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, logFile)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(data[16:], 7)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				fixHeaderCRC(t, path)
			},
			wantErr: ErrBadHeader,
		},
		{
			name: "log header: base digest disagrees with the snapshot",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, logFile)
				flipByte(t, path, 30)
				fixHeaderCRC(t, path)
			},
			wantErr: ErrDigestMismatch,
		},
		{
			name: "snapshot container bit flip",
			corrupt: func(t *testing.T, dir string) {
				flipByte(t, filepath.Join(dir, snapFile), -9)
			},
			wantErr: nil, // refused by the kwcsr digest verification
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, strict := range []bool{false, true} {
				dir := copyDir(t, src)
				tc.corrupt(t, dir)
				opts := noSnapshots
				opts.Strict = strict
				rec, err := Open(dir, nil, nil, opts)
				if !strict && tc.laxOK {
					if err != nil {
						t.Fatalf("lax: %v, want tolerated torn tail", err)
					}
					rec.Log.Close()
					rec.Mapped.Close()
					continue
				}
				if err == nil {
					rec.Log.Close()
					rec.Mapped.Close()
					t.Fatalf("strict=%v: corruption accepted", strict)
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Fatalf("strict=%v: err = %v, want %v", strict, err, tc.wantErr)
				}
				t.Logf("strict=%v rejected: %v", strict, err)
			}
		})
	}
}
