package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"kwmds/internal/dyngraph"
	"kwmds/internal/graphio"
)

// Frame layout (little-endian throughout):
//
//	offset  size  field
//	0       4     payload length (bytes; excludes this 8-byte prefix)
//	4       4     CRC32C (Castagnoli) over the payload
//	8       …     payload
//
// Payload layout:
//
//	0       8     epoch (int64, > 0)
//	8       4     grew — vertices added this epoch (uint32)
//	12      4     nAdd — edge insertions
//	16      4     nRem — edge removals
//	20      4     nW   — weight updates
//	24      32    pre-commit topology digest (graphio.DigestRaw)
//	56      32    post-commit topology digest
//	88      8·nAdd  insertions, (u int32, v int32) with u < v, sorted
//	…       8·nRem  removals, same form
//	…       12·nW   weight updates, (v int32, w float64), sorted by v
//
// Every multi-byte integer is little-endian; edges are normalized (min
// endpoint first, lexicographically sorted) so a record's bytes are a
// canonical function of the epoch's net effect — two paths to the same
// epoch serialize identically.
const (
	framePrefixBytes = 8
	recHeaderBytes   = 88
	digestBytes      = 32

	// maxRecordBytes bounds a declared payload length: a corrupted length
	// prefix must fail the record, not drive a multi-gigabyte allocation.
	maxRecordBytes = 1 << 28
	// maxRecordGrow bounds per-record vertex additions for the same
	// reason: grew drives an O(grew) replay loop before any edge data
	// corroborates it.
	maxRecordGrow = 1 << 22
)

// castagnoli is the CRC32C table (iSCSI polynomial — hardware-accelerated
// on amd64/arm64 via the stdlib).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one committed dyngraph epoch in its durable form: the
// normalized net edge delta, weight updates, vertex growth, and the CSR
// digests bracketing the commit. Replay refuses a record whose pre-digest
// does not match the state it is applied to, or whose post-digest does not
// match the state it produces.
type Record struct {
	Epoch   int64
	Grew    int
	Adds    [][2]int32
	Rems    [][2]int32
	Weights []dyngraph.WeightUpdate
	Pre     [digestBytes]byte
	Post    [digestBytes]byte
}

// appendFrame serializes r as one length-prefixed CRC32C frame onto buf.
func (r *Record) appendFrame(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, framePrefixBytes)...)
	payloadStart := len(buf)

	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(r.Epoch))
	buf = append(buf, tmp[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Grew))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Adds)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Rems)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Weights)))
	buf = append(buf, r.Pre[:]...)
	buf = append(buf, r.Post[:]...)
	for _, e := range r.Adds {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[0]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[1]))
	}
	for _, e := range r.Rems {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[0]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[1]))
	}
	for _, w := range r.Weights {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.V))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.W))
	}

	payload := buf[payloadStart:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// decodeRecord parses one CRC-verified payload. Structural problems — a
// payload shorter than its counts imply, an absurd growth figure, a
// non-positive epoch — are corruption (the CRC matched, so the frame was
// written this way or the flip landed in both payload and CRC).
func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) < recHeaderBytes {
		return nil, fmt.Errorf("%w: payload %d bytes, want ≥ %d", ErrCorruptRecord, len(payload), recHeaderBytes)
	}
	r := &Record{Epoch: int64(binary.LittleEndian.Uint64(payload[0:]))}
	grew := binary.LittleEndian.Uint32(payload[8:])
	nAdd := binary.LittleEndian.Uint32(payload[12:])
	nRem := binary.LittleEndian.Uint32(payload[16:])
	nW := binary.LittleEndian.Uint32(payload[20:])
	copy(r.Pre[:], payload[24:])
	copy(r.Post[:], payload[56:])
	if r.Epoch <= 0 {
		return nil, fmt.Errorf("%w: epoch %d", ErrCorruptRecord, r.Epoch)
	}
	if grew > maxRecordGrow {
		return nil, fmt.Errorf("%w: grew %d exceeds the per-record limit %d", ErrCorruptRecord, grew, maxRecordGrow)
	}
	want := recHeaderBytes + 8*int64(nAdd) + 8*int64(nRem) + 12*int64(nW)
	if int64(len(payload)) != want {
		return nil, fmt.Errorf("%w: payload %d bytes, counts imply %d", ErrCorruptRecord, len(payload), want)
	}
	r.Grew = int(grew)
	off := recHeaderBytes
	r.Adds = decodePairs(payload[off:], int(nAdd))
	off += 8 * int(nAdd)
	r.Rems = decodePairs(payload[off:], int(nRem))
	off += 8 * int(nRem)
	if nW > 0 {
		r.Weights = make([]dyngraph.WeightUpdate, nW)
		for i := range r.Weights {
			r.Weights[i].V = int32(binary.LittleEndian.Uint32(payload[off:]))
			r.Weights[i].W = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+4:]))
			off += 12
		}
	}
	return r, nil
}

func decodePairs(b []byte, n int) [][2]int32 {
	if n == 0 {
		return nil
	}
	ps := make([][2]int32, n)
	for i := range ps {
		ps[i][0] = int32(binary.LittleEndian.Uint32(b[8*i:]))
		ps[i][1] = int32(binary.LittleEndian.Uint32(b[8*i+4:]))
	}
	return ps
}

// applyRecord replays one decoded record onto d, which must be at epoch
// rec.Epoch−1, and moves tree (the digest tree of d's graph) along with it,
// re-hashing only the blocks the commit touched. The record's pre-digest
// must match the tree's root before, its post-digest the root after. Any
// failure is fail-closed: the record is refused with a typed error and d
// and tree are left unusable for further replay (recovery abandons the
// whole attempt, it never keeps a half-applied state).
func applyRecord(d *dyngraph.Dynamic, tree *graphio.DigestTree, rec *Record) error {
	if rec.Epoch != d.Epoch()+1 {
		return fmt.Errorf("%w: record epoch %d after epoch %d", ErrEpochOrder, rec.Epoch, d.Epoch())
	}
	if rec.Pre != tree.Root() {
		return fmt.Errorf("%w: epoch %d pre-digest does not match the replayed state", ErrDigestMismatch, rec.Epoch)
	}
	for i := 0; i < rec.Grew; i++ {
		d.AddVertex()
	}
	d.ApplyEdgeDeltas(rec.Adds, rec.Rems)
	for _, w := range rec.Weights {
		if err := d.SetWeight(int(w.V), w.W); err != nil {
			d.Discard()
			return fmt.Errorf("%w: epoch %d: %v", ErrCorruptRecord, rec.Epoch, err)
		}
	}
	delta, err := d.Commit()
	if err != nil {
		d.Discard()
		return fmt.Errorf("%w: epoch %d does not apply: %v", ErrCorruptRecord, rec.Epoch, err)
	}
	if delta.Next != delta.Prev {
		tree.Update(delta.Next, delta.Touched)
	}
	if tree.Root() != rec.Post {
		return fmt.Errorf("%w: epoch %d post-digest does not match the replayed result", ErrDigestMismatch, rec.Epoch)
	}
	return nil
}

// replayRecords replays every frame in data (the log file body after the
// 64-byte header) onto d, keeping tree (the digest tree of d's graph) in
// step: one tree serves the whole replay, so each record re-hashes only
// the blocks it touched. It returns the number of replayed records and —
// in the default (lax) policy — how many trailing bytes form a torn final
// record; the final digest is tree's root.
//
// Torn-tail semantics: a frame whose declared extent runs past the end of
// the file can only be the unfinished last write of a crashed process, and
// a record that never finished writing was never fsynced, so its mutate was
// never acknowledged — dropping it is correct, not lossy. Under strict it
// is still refused with ErrTornTail (the fault-injection tables use strict
// to pin the taxonomy). Everything else — a CRC mismatch on a fully
// present frame, an undecodable payload, an out-of-order epoch, a digest
// disagreement — is corruption and fails closed under both policies.
func replayRecords(data []byte, d *dyngraph.Dynamic, tree *graphio.DigestTree, strict bool) (replayed int64, torn int64, err error) {
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < framePrefixBytes {
			if strict {
				return replayed, 0, fmt.Errorf("%w: %d trailing bytes", ErrTornTail, rest)
			}
			return replayed, int64(rest), nil
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		if length > maxRecordBytes {
			return replayed, 0, fmt.Errorf("%w: declared %d bytes", ErrRecordTooLarge, length)
		}
		if length > int64(rest-framePrefixBytes) {
			if strict {
				return replayed, 0, fmt.Errorf("%w: frame declares %d payload bytes, %d remain", ErrTornTail, length, rest-framePrefixBytes)
			}
			return replayed, int64(rest), nil
		}
		crc := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+framePrefixBytes : off+framePrefixBytes+int(length)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return replayed, 0, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorruptRecord, off)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return replayed, 0, derr
		}
		if err := applyRecord(d, tree, rec); err != nil {
			return replayed, 0, err
		}
		replayed++
		off += framePrefixBytes + int(length)
	}
	return replayed, 0, nil
}
