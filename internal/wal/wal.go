// Package wal is the durability layer behind mutable preloaded graphs: a
// length-prefixed, CRC32C-framed, fsync-batched write-ahead log of dyngraph
// epoch commits, plus snapshot/restore keyed to the .kwcsr binary container.
//
// Layout of one graph's state directory:
//
//	snap-<epoch-hex>.kwcsr   full CSR snapshot (with weights) at that epoch
//	wal-<epoch-hex>.log      records for the epochs after that snapshot
//
// Every committed epoch appends one Record (normalized edge deltas, weight
// updates, epoch id, pre/post topology digests — see record.go for the frame
// format). Snapshots are written when the log passes a configurable
// epoch-count or byte threshold, and everything behind the new snapshot is
// truncated. Recovery mmaps the newest snapshot (graphio.OpenMapped, so a
// multi-gigabyte base is serving in milliseconds) and replays the log tail
// through the dyngraph engine, verifying CRC, epoch ordering and both
// digests per record — torn, corrupt, reordered or digest-mismatched
// records are refused fail-closed with typed errors (the only tolerated
// anomaly is an unfinished final write, which by the durable-before-ack
// contract was never acknowledged; see replayRecords).
//
// Fsync batching: Append serializes the buffered write under one mutex but
// syncs under another, and a sync covers every byte written before it — so
// N concurrent committers ride one fsync instead of queueing N, the classic
// group commit.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kwmds/internal/dyngraph"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/hdr"
)

// Typed failure classes. Recovery and replay errors wrap exactly one of
// these, so callers (and the fault-injection tables) can classify with
// errors.Is.
var (
	// ErrBadHeader: the log file's 64-byte header is malformed — wrong
	// magic, unknown version, nonzero reserved flags, header CRC mismatch,
	// or a base epoch/digest that disagrees with the snapshot it sits next
	// to.
	ErrBadHeader = errors.New("wal: bad log header")
	// ErrTornTail: a frame's declared extent runs past the end of the log
	// (an unfinished final write). Refused under the strict policy;
	// truncated under the default policy (see replayRecords).
	ErrTornTail = errors.New("wal: torn record at log tail")
	// ErrCorruptRecord: a fully present frame whose CRC, structure or
	// application is wrong — a bit flip, a short write that landed
	// mid-log, or a record that does not apply to the state it follows.
	ErrCorruptRecord = errors.New("wal: corrupt record")
	// ErrRecordTooLarge: a declared payload length beyond the format
	// limit (a corrupted length prefix).
	ErrRecordTooLarge = errors.New("wal: record exceeds size limit")
	// ErrEpochOrder: a record whose epoch is not the successor of the
	// state before it — a reordered, duplicated or missing record.
	ErrEpochOrder = errors.New("wal: record epoch out of order")
	// ErrDigestMismatch: a record (or snapshot) whose digest does not
	// match the state recovery arrived at.
	ErrDigestMismatch = errors.New("wal: digest mismatch")
	// ErrNoState: the directory holds no snapshot and no initial graph
	// was supplied.
	ErrNoState = errors.New("wal: no snapshot and no initial graph")
	// ErrLogFailed: a previous append failed; the log refuses further
	// writes because the in-memory state has advanced past the durable
	// one (restart to recover).
	ErrLogFailed = errors.New("wal: log failed")
)

// Log file header (64 bytes, mirroring the kwcsr container's style):
//
//	offset  size  field
//	0       8     magic "kwwal\x00\x00\x00"
//	8       4     version (2)
//	12      4     flags (reserved, must be zero)
//	16      8     base epoch — the snapshot this log continues from
//	24      32    base topology digest (graphio.DigestRaw) of that snapshot
//	56      4     CRC32C over bytes [0, 56)
//	60      4     zero padding
//
// Every digest in a version 2 log (header and records) is a
// graphio.DigestTree root; a version 1 log carries flat CSR hashes and is
// refused with ErrBadHeader.
const (
	logHeaderBytes = 64
	walMagic       = "kwwal\x00\x00\x00"
	walVersion     = 2
)

// Options tune a log. The zero value is the production default.
type Options struct {
	// SnapshotEveryEpochs triggers a snapshot once this many epochs
	// accumulate in the log (0 → 128, negative → never by epoch count).
	SnapshotEveryEpochs int
	// SnapshotEveryBytes triggers a snapshot once the log body passes
	// this size (0 → 4 MiB, negative → never by size).
	SnapshotEveryBytes int64
	// Strict refuses a torn final record during recovery instead of
	// truncating it. The default (false) drops an unfinished final write:
	// it was never fsynced, so its mutate was never acknowledged.
	Strict bool
}

const (
	defaultSnapshotEpochs = 128
	defaultSnapshotBytes  = 4 << 20
)

func (o Options) snapshotEpochs() int {
	if o.SnapshotEveryEpochs == 0 {
		return defaultSnapshotEpochs
	}
	return o.SnapshotEveryEpochs
}

func (o Options) snapshotBytes() int64 {
	if o.SnapshotEveryBytes == 0 {
		return defaultSnapshotBytes
	}
	return o.SnapshotEveryBytes
}

// RecoveryStats describes what one Open did.
type RecoveryStats struct {
	// SnapshotEpoch is the epoch of the snapshot recovery started from.
	SnapshotEpoch int64 `json:"snapshot_epoch"`
	// ReplayedEpochs is the number of log records replayed on top of it.
	ReplayedEpochs int64 `json:"replayed_epochs"`
	// TornTailBytes is the size of a truncated unfinished final record
	// (0 for a clean tail).
	TornTailBytes int64 `json:"torn_tail_bytes,omitempty"`
	// RecoveryMS is the wall-clock cost of the whole Open.
	RecoveryMS float64 `json:"recovery_ms"`
	// WALBytes and SnapshotBytes are the on-disk sizes encountered.
	WALBytes      int64 `json:"wal_bytes"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// Recovered is the result of Open: the restored engine state plus the live
// log, ready for appends at the next epoch.
type Recovered struct {
	// Log accepts appends for epoch Dyn.Epoch()+1 onward.
	Log *Log
	// Dyn is the dynamic-graph engine at the recovered epoch, weights
	// included.
	Dyn *dyngraph.Dynamic
	// Digest is the raw topology digest of Dyn.Graph().
	Digest [digestBytes]byte
	// Mapped, when non-nil, is the mmapped snapshot backing Dyn's base
	// graph. The caller owns it: keep it open while the base graph may
	// still be served (weight-only epochs never copy it to heap) and
	// Close it when the graph's lifecycle ends. Nil when the state came
	// from the caller's initial graph.
	Mapped *graphio.MappedGraph
	Stats  RecoveryStats
}

// Log is one graph's open write-ahead log.
type Log struct {
	dir  string
	opts Options

	// mu guards the write path: file handle, write offset, epoch cursor.
	mu        sync.Mutex
	f         *os.File
	written   int64 // bytes written to the current log file (header included)
	baseEpoch int64 // epoch of the snapshot the current log continues
	lastEpoch int64 // epoch of the last appended (or replayed) record
	failed    error // sticky append failure
	snapBytes int64 // size of the current snapshot file
	buf       []byte
	// lastDigest is the topology digest at lastEpoch: the last record's
	// post-digest, or the base digest of a log without records. A
	// snapshot at lastEpoch writes it into the new log's header.
	lastDigest [digestBytes]byte

	// syncMu serializes fsyncs; synced is how far they have covered.
	// Lock order: syncMu before mu (syncTo and rotate both follow it).
	syncMu sync.Mutex
	synced int64

	// Metrics.
	appends       atomic.Int64
	appendedBytes atomic.Int64
	fsyncs        atomic.Int64
	snapshots     atomic.Int64
	snapshotFails atomic.Int64
	hmu           sync.Mutex
	fsyncHist     hdr.Histogram
	recovery      RecoveryStats
}

func snapName(epoch int64) string { return fmt.Sprintf("snap-%016x.kwcsr", uint64(epoch)) }
func logName(epoch int64) string  { return fmt.Sprintf("wal-%016x.log", uint64(epoch)) }

// parseStateName extracts the epoch from a snap-/wal- file name, reporting
// which kind it is.
func parseStateName(name string) (epoch int64, snap, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".kwcsr"):
		rest, snap = strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".kwcsr"), true
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		rest = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	default:
		return 0, false, false
	}
	if len(rest) != 16 {
		return 0, false, false
	}
	u, err := strconv.ParseUint(rest, 16, 64)
	if err != nil || u > 1<<62 {
		return 0, false, false
	}
	return int64(u), snap, true
}

func encodeLogHeader(baseEpoch int64, baseDigest [digestBytes]byte) []byte {
	h := make([]byte, logHeaderBytes)
	copy(h, walMagic)
	binary.LittleEndian.PutUint32(h[8:], walVersion)
	binary.LittleEndian.PutUint64(h[16:], uint64(baseEpoch))
	copy(h[24:], baseDigest[:])
	binary.LittleEndian.PutUint32(h[56:], crc32.Checksum(h[:56], castagnoli))
	return h
}

func parseLogHeader(data []byte) (baseEpoch int64, baseDigest [digestBytes]byte, err error) {
	if len(data) < logHeaderBytes {
		return 0, baseDigest, fmt.Errorf("%w: %d bytes, want ≥ %d", ErrBadHeader, len(data), logHeaderBytes)
	}
	if string(data[:8]) != walMagic {
		return 0, baseDigest, fmt.Errorf("%w: bad magic", ErrBadHeader)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != walVersion {
		return 0, baseDigest, fmt.Errorf("%w: version %d, want %d", ErrBadHeader, v, walVersion)
	}
	if f := binary.LittleEndian.Uint32(data[12:]); f != 0 {
		return 0, baseDigest, fmt.Errorf("%w: nonzero reserved flags %#x", ErrBadHeader, f)
	}
	if got, want := binary.LittleEndian.Uint32(data[56:]), crc32.Checksum(data[:56], castagnoli); got != want {
		return 0, baseDigest, fmt.Errorf("%w: header CRC mismatch", ErrBadHeader)
	}
	if pad := binary.LittleEndian.Uint32(data[60:]); pad != 0 {
		return 0, baseDigest, fmt.Errorf("%w: nonzero padding", ErrBadHeader)
	}
	baseEpoch = int64(binary.LittleEndian.Uint64(data[16:]))
	copy(baseDigest[:], data[24:])
	if baseEpoch < 0 {
		return 0, baseDigest, fmt.Errorf("%w: negative base epoch", ErrBadHeader)
	}
	return baseEpoch, baseDigest, nil
}

// Open restores a graph's durable state from dir (creating the directory if
// needed) and returns the live log. With no on-disk state, initial seeds
// epoch 0: a snapshot of it is written before Open returns, so a crash at
// any later point can always recover. With on-disk state, initial is
// ignored — the durable history wins — and the newest snapshot is mmapped
// and the log tail replayed onto it. initialCosts, when non-nil, is epoch
// 0's weight vector (ownership passes to the engine).
func Open(dir string, initial *graph.Graph, initialCosts []float64, opts Options) (*Recovered, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	snapEpoch, haveSnap := int64(0), false
	for _, e := range entries {
		if epoch, snap, ok := parseStateName(e.Name()); ok && snap && (!haveSnap || epoch > snapEpoch) {
			snapEpoch, haveSnap = epoch, true
		}
	}

	l := &Log{dir: dir, opts: opts}
	rec := &Recovered{Log: l}

	if !haveSnap {
		if initial == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoState, dir)
		}
		rec.Digest = graphio.DigestRaw(initial)
		rec.Dyn = dyngraph.NewAt(initial, 0, initialCosts)
		if err := l.writeSnapshotFile(initial, initialCosts, 0); err != nil {
			return nil, err
		}
		if err := l.createLogFile(0, rec.Digest); err != nil {
			return nil, err
		}
		l.recovery = RecoveryStats{SnapshotBytes: l.snapBytes, RecoveryMS: msSince(t0)}
		rec.Stats = l.recovery
		return rec, nil
	}

	// Restore: mmap the newest snapshot and verify it end to end. One
	// pass builds the digest tree the replay below updates, and its root
	// is the snapshot's digest check: everything recovery replays on top
	// is checked against this digest, so a silently corrupt base would
	// poison every record check anyway.
	m, err := graphio.OpenMapped(filepath.Join(dir, snapName(snapEpoch)))
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", snapName(snapEpoch), err)
	}
	keepMapped := false
	defer func() {
		if !keepMapped {
			m.Close()
		}
	}()
	if err := m.VerifyStructure(); err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", snapName(snapEpoch), err)
	}
	digest := m.Digest()
	tree := graphio.NewDigestTree(m.Graph())
	if tree.Root() != digest {
		return nil, fmt.Errorf("%w: snapshot %s does not match its embedded digest", ErrDigestMismatch, snapName(snapEpoch))
	}
	var costs []float64
	if w := m.Weights(); w != nil {
		// Copy off the mapping: the engine owns its cost vector and the
		// mapping's lifetime is the base graph's, not the weights'.
		costs = append([]float64(nil), w...)
	}
	d := dyngraph.NewAt(m.Graph(), snapEpoch, costs)

	logPath := filepath.Join(dir, logName(snapEpoch))
	var replayed, tornBytes, walBytes int64
	data, rerr := os.ReadFile(logPath)
	switch {
	case rerr == nil && len(data) == 0 && !opts.Strict:
		// A crash between file creation and the header write leaves an
		// empty log; nothing was ever appended (appends follow a synced
		// header), so it is equivalent to a missing log.
		if err := l.createLogFile(snapEpoch, digest); err != nil {
			return nil, err
		}
	case rerr == nil:
		walBytes = int64(len(data))
		baseEpoch, baseDigest, herr := parseLogHeader(data)
		if herr != nil {
			return nil, herr
		}
		if baseEpoch != snapEpoch {
			return nil, fmt.Errorf("%w: log base epoch %d beside snapshot epoch %d", ErrBadHeader, baseEpoch, snapEpoch)
		}
		if baseDigest != digest {
			return nil, fmt.Errorf("%w: log base digest does not match the snapshot", ErrDigestMismatch)
		}
		replayed, tornBytes, err = replayRecords(data[logHeaderBytes:], d, tree, opts.Strict)
		if err != nil {
			return nil, err
		}
		digest = tree.Root()
		valid := int64(len(data)) - tornBytes
		if tornBytes > 0 {
			if err := os.Truncate(logPath, valid); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.written, l.synced = f, valid, valid
		l.baseEpoch, l.lastEpoch, l.lastDigest = snapEpoch, snapEpoch+replayed, digest
		if fi, err := os.Stat(filepath.Join(dir, snapName(snapEpoch))); err == nil {
			l.snapBytes = fi.Size()
		}
	case os.IsNotExist(rerr):
		// Crash after the snapshot renamed in but before its fresh log
		// was created: the snapshot alone is the complete state.
		if err := l.createLogFile(snapEpoch, digest); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: %w", rerr)
	}

	// Drop state behind the snapshot recovery chose (left over when a
	// crash interrupted a snapshot's cleanup). Best-effort: stale files
	// are ignored by every future recovery regardless.
	for _, e := range entries {
		if epoch, _, ok := parseStateName(e.Name()); ok && epoch < snapEpoch {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	keepMapped = true
	l.recovery = RecoveryStats{
		SnapshotEpoch:  snapEpoch,
		ReplayedEpochs: replayed,
		TornTailBytes:  tornBytes,
		RecoveryMS:     msSince(t0),
		WALBytes:       walBytes,
		SnapshotBytes:  l.snapBytes,
	}
	rec.Dyn, rec.Digest, rec.Mapped, rec.Stats = d, digest, m, l.recovery
	return rec, nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// writeSnapshotFile writes the epoch's .kwcsr via tmp + fsync + rename, so
// a crash mid-write never leaves a file recovery would consider.
func (l *Log) writeSnapshotFile(g *graph.Graph, costs []float64, epoch int64) error {
	final := filepath.Join(l.dir, snapName(epoch))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := graphio.WriteBinaryCSR(f, g, costs); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	size, _ := f.Seek(0, 2)
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	syncDir(l.dir)
	l.snapBytes = size
	return nil
}

// createLogFile starts a fresh log continuing baseEpoch and makes it the
// append target. The header is fsynced before any append can follow it.
func (l *Log) createLogFile(baseEpoch int64, baseDigest [digestBytes]byte) error {
	path := filepath.Join(l.dir, logName(baseEpoch))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdrBytes := encodeLogHeader(baseEpoch, baseDigest)
	if _, err := f.Write(hdrBytes); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(l.dir)
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.written, l.synced = logHeaderBytes, logHeaderBytes
	l.baseEpoch, l.lastEpoch, l.lastDigest = baseEpoch, baseEpoch, baseDigest
	return nil
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Append writes one epoch record. With sync set it returns only once the
// record is fsynced (riding a concurrent committer's fsync when one covers
// it — group commit); without, the record is buffered in the OS and will be
// covered by the next synced append, an explicit Sync, or Close. A write
// failure is sticky: the in-memory engine has advanced past the durable
// state, so the log refuses everything further until a restart recovers.
func (l *Log) Append(rec *Record, sync bool) error {
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrLogFailed, err)
	}
	if rec.Epoch != l.lastEpoch+1 {
		l.mu.Unlock()
		return fmt.Errorf("%w: appending epoch %d after %d", ErrEpochOrder, rec.Epoch, l.lastEpoch)
	}
	l.buf = rec.appendFrame(l.buf[:0])
	if _, err := l.f.Write(l.buf); err != nil {
		l.failed = err
		l.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrLogFailed, err)
	}
	l.written += int64(len(l.buf))
	l.lastEpoch, l.lastDigest = rec.Epoch, rec.Post
	off := l.written
	n := int64(len(l.buf))
	l.mu.Unlock()

	l.appends.Add(1)
	l.appendedBytes.Add(n)
	if sync {
		return l.syncTo(off)
	}
	return nil
}

// syncTo ensures every byte up to off is fsynced. The first committer to
// take syncMu covers everyone already written; later committers find their
// offset covered and return without touching the disk.
func (l *Log) syncTo(off int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= off {
		return nil
	}
	l.mu.Lock()
	w, f, failed := l.written, l.f, l.failed
	l.mu.Unlock()
	if failed != nil {
		return fmt.Errorf("%w: %v", ErrLogFailed, failed)
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		l.mu.Lock()
		l.failed = err
		l.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrLogFailed, err)
	}
	l.fsyncs.Add(1)
	l.hmu.Lock()
	l.fsyncHist.Record(time.Since(t0))
	l.hmu.Unlock()
	l.synced = w
	return nil
}

// Sync flushes every buffered record to disk — the graceful-drain hook:
// committed-but-unsynced (sync=false) records become durable before the
// process exits.
func (l *Log) Sync() error {
	l.mu.Lock()
	off := l.written
	l.mu.Unlock()
	return l.syncTo(off)
}

// ShouldSnapshot reports whether the log has passed a snapshot threshold.
// The caller decides when to act on it (the server checks after each
// mutate, while it still holds the graph's write lock and so a consistent
// (graph, costs, epoch) triple to hand WriteSnapshot).
func (l *Log) ShouldSnapshot() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return false
	}
	if e := l.opts.snapshotEpochs(); e > 0 && l.lastEpoch-l.baseEpoch >= int64(e) {
		return true
	}
	if b := l.opts.snapshotBytes(); b > 0 && l.written-logHeaderBytes >= b {
		return true
	}
	return false
}

// WriteSnapshot persists the state at epoch (which must be the last
// appended epoch) and truncates the log behind it: the .kwcsr lands via
// tmp+rename, a fresh log continuing it becomes the append target, and the
// superseded files are removed. The fresh log's header carries the digest
// the last record logged rather than a second hash of g, so recovery
// checks the snapshot against the logged history: a g other than the
// logged state fails the next Open with ErrDigestMismatch. A failure
// leaves the previous snapshot+log chain fully intact (and the log still
// appendable): snapshots are an optimization of recovery time, never a
// correctness requirement.
func (l *Log) WriteSnapshot(g *graph.Graph, costs []float64, epoch int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("%w: %v", ErrLogFailed, l.failed)
	}
	if epoch != l.lastEpoch {
		return fmt.Errorf("wal: snapshot at epoch %d but log is at %d", epoch, l.lastEpoch)
	}
	oldBase := l.baseEpoch
	if err := l.writeSnapshotFile(g, costs, epoch); err != nil {
		l.snapshotFails.Add(1)
		return err
	}
	if err := l.createLogFile(epoch, l.lastDigest); err != nil {
		// The new snapshot is in place; the old log still covers every
		// epoch up to it, so recovery stays correct either way.
		l.snapshotFails.Add(1)
		return err
	}
	l.snapshots.Add(1)
	if oldBase != epoch {
		os.Remove(filepath.Join(l.dir, snapName(oldBase)))
		os.Remove(filepath.Join(l.dir, logName(oldBase)))
	}
	return nil
}

// Close flushes and closes the log file. The mmapped snapshot handed out
// by Open is the caller's to close — the Log never owns it.
func (l *Log) Close() error {
	serr := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	var cerr error
	if l.f != nil {
		cerr = l.f.Close()
		l.f = nil
	}
	if serr != nil && !errors.Is(serr, ErrLogFailed) {
		return serr
	}
	return cerr
}

// Metrics is a point-in-time snapshot of the log's counters for /metrics.
type Metrics struct {
	Appends       int64
	AppendedBytes int64
	Fsyncs        int64
	FsyncLatency  hdr.Summary
	FsyncCount    uint64
	Snapshots     int64
	SnapshotFails int64
	BaseEpoch     int64
	LastEpoch     int64
	Recovery      RecoveryStats
}

// MetricsSnapshot captures the counters. Safe for concurrent use with
// appends.
func (l *Log) MetricsSnapshot() Metrics {
	m := Metrics{
		Appends:       l.appends.Load(),
		AppendedBytes: l.appendedBytes.Load(),
		Fsyncs:        l.fsyncs.Load(),
		Snapshots:     l.snapshots.Load(),
		SnapshotFails: l.snapshotFails.Load(),
	}
	l.hmu.Lock()
	m.FsyncLatency = l.fsyncHist.Summary()
	m.FsyncCount = l.fsyncHist.Count()
	m.Recovery = l.recovery
	l.hmu.Unlock()
	l.mu.Lock()
	m.BaseEpoch, m.LastEpoch = l.baseEpoch, l.lastEpoch
	l.mu.Unlock()
	return m
}
