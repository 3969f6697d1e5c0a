package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"kwmds/internal/hdr"
)

// solveStats is one engine label's latency accounting for /metrics.
type solveStats struct {
	hist hdr.Histogram
}

// observeSolve records one cold solve's latency under its engine label.
func (s *Server) observeSolve(engine string, ms float64) {
	if engine == "" {
		engine = "fast"
	}
	s.lmu.Lock()
	st := s.solveHist[engine]
	if st == nil {
		st = &solveStats{}
		s.solveHist[engine] = st
	}
	st.hist.Record(time.Duration(ms * float64(time.Millisecond)))
	s.lmu.Unlock()
}

// BatchStats reports the lifetime count of cold solves twice, in the shape
// the removed cold-solve batcher's (batches, batched solves) counters had:
// every cold solve now runs on its own, as a batch of one. It stays only
// for the perfbench module, which reads it; the count is the sum of the
// per-engine cold-solve latency histograms.
func (s *Server) BatchStats() (batches, batchedSolves int64) {
	s.lmu.Lock()
	var n uint64
	for _, st := range s.solveHist {
		n += st.hist.Count()
	}
	s.lmu.Unlock()
	return int64(n), int64(n)
}

// handleMetrics serves the Prometheus text exposition (format 0.0.4),
// hand-rolled — the repo takes no dependencies, and the format is lines.
// Families:
//
//	kwmds_cache_entries / _hits_total / _misses_total / _hit_rate
//	kwmds_pool_workers / kwmds_pool_in_use
//	kwmds_sheds_total / kwmds_queue_depth / kwmds_queue_limit
//	kwmds_graphs
//	kwmds_solve_latency_ms{engine,quantile} + _sum/_count   (cold solves, each its own time)
//	kwmds_wal_*{graph}                                      (durable graphs)
//	kwmds_wal_fsync_latency_ms{graph,quantile} + _sum/_count
//	kwmds_recovery_ms{graph} / kwmds_recovery_replayed_epochs{graph}
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	entries, hits, misses := s.cache.stats()
	writeFamily(&b, "kwmds_cache_entries", "gauge", "Result cache entries resident.")
	fmt.Fprintf(&b, "kwmds_cache_entries %d\n", entries)
	writeFamily(&b, "kwmds_cache_hits_total", "counter", "Result cache hits.")
	fmt.Fprintf(&b, "kwmds_cache_hits_total %d\n", hits)
	writeFamily(&b, "kwmds_cache_misses_total", "counter", "Result cache misses.")
	fmt.Fprintf(&b, "kwmds_cache_misses_total %d\n", misses)
	writeFamily(&b, "kwmds_cache_hit_rate", "gauge", "Hits over lookups since start.")
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(&b, "kwmds_cache_hit_rate %g\n", rate)

	writeFamily(&b, "kwmds_pool_workers", "gauge", "Worker pool capacity.")
	fmt.Fprintf(&b, "kwmds_pool_workers %d\n", s.cfg.Workers)
	writeFamily(&b, "kwmds_pool_in_use", "gauge", "Worker slots currently held.")
	fmt.Fprintf(&b, "kwmds_pool_in_use %d\n", len(s.sem))

	sheds, depth := s.QueueStats()
	writeFamily(&b, "kwmds_sheds_total", "counter", "Solves shed by admission control (429).")
	fmt.Fprintf(&b, "kwmds_sheds_total %d\n", sheds)
	writeFamily(&b, "kwmds_queue_depth", "gauge", "Computations currently in the admission queue.")
	fmt.Fprintf(&b, "kwmds_queue_depth %d\n", depth)
	writeFamily(&b, "kwmds_queue_limit", "gauge", "Admission queue bound (0 = unbounded).")
	fmt.Fprintf(&b, "kwmds_queue_limit %d\n", s.cfg.MaxQueue)

	s.gmu.RLock()
	names := append([]string(nil), s.names...)
	ps := make([]*preloaded, len(names))
	for i, name := range names {
		ps[i] = s.graphs[name]
	}
	s.gmu.RUnlock()
	writeFamily(&b, "kwmds_graphs", "gauge", "Preloaded graphs registered.")
	fmt.Fprintf(&b, "kwmds_graphs %d\n", len(names))

	s.lmu.Lock()
	engines := make([]string, 0, len(s.solveHist))
	for e := range s.solveHist {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	type engineSummary struct {
		name  string
		sum   hdr.Summary
		sumMS float64
		count uint64
	}
	sums := make([]engineSummary, 0, len(engines))
	for _, e := range engines {
		h := &s.solveHist[e].hist
		sums = append(sums, engineSummary{e, h.Summary(), h.SumMS(), h.Count()})
	}
	s.lmu.Unlock()
	if len(sums) > 0 {
		writeFamily(&b, "kwmds_solve_latency_ms", "summary", "Cold solve latency by engine (ms).")
		for _, es := range sums {
			writeSummary(&b, "kwmds_solve_latency_ms", fmt.Sprintf("engine=%q", es.name), es.sum, es.sumMS, es.count)
		}
	}

	first := true
	for i, name := range names {
		p := ps[i]
		p.mu.RLock()
		log := p.log
		p.mu.RUnlock()
		if log == nil {
			continue
		}
		m := log.MetricsSnapshot()
		if first {
			writeFamily(&b, "kwmds_wal_appends_total", "counter", "WAL records appended.")
			writeFamily(&b, "kwmds_wal_appended_bytes_total", "counter", "WAL bytes appended.")
			writeFamily(&b, "kwmds_wal_fsyncs_total", "counter", "WAL fsyncs issued (group commit batches several appends per fsync).")
			writeFamily(&b, "kwmds_wal_snapshots_total", "counter", "Snapshots written with log truncation.")
			writeFamily(&b, "kwmds_wal_snapshot_failures_total", "counter", "Snapshot attempts that failed; the log chain stays intact, so recovery replays more.")
			writeFamily(&b, "kwmds_wal_last_epoch", "gauge", "Last epoch durably logged.")
			writeFamily(&b, "kwmds_wal_fsync_latency_ms", "summary", "WAL fsync latency (ms).")
			writeFamily(&b, "kwmds_recovery_ms", "gauge", "Wall-clock cost of this graph's recovery at startup (ms).")
			writeFamily(&b, "kwmds_recovery_replayed_epochs", "gauge", "Log records replayed during recovery.")
			first = false
		}
		lbl := fmt.Sprintf("graph=%q", name)
		fmt.Fprintf(&b, "kwmds_wal_appends_total{%s} %d\n", lbl, m.Appends)
		fmt.Fprintf(&b, "kwmds_wal_appended_bytes_total{%s} %d\n", lbl, m.AppendedBytes)
		fmt.Fprintf(&b, "kwmds_wal_fsyncs_total{%s} %d\n", lbl, m.Fsyncs)
		fmt.Fprintf(&b, "kwmds_wal_snapshots_total{%s} %d\n", lbl, m.Snapshots)
		fmt.Fprintf(&b, "kwmds_wal_snapshot_failures_total{%s} %d\n", lbl, m.SnapshotFails)
		fmt.Fprintf(&b, "kwmds_wal_last_epoch{%s} %d\n", lbl, m.LastEpoch)
		var fsyncSumMS float64
		if m.FsyncCount > 0 {
			fsyncSumMS = m.FsyncLatency.Mean * float64(m.FsyncCount)
		}
		writeSummary(&b, "kwmds_wal_fsync_latency_ms", lbl, m.FsyncLatency, fsyncSumMS, m.FsyncCount)
		fmt.Fprintf(&b, "kwmds_recovery_ms{%s} %g\n", lbl, m.Recovery.RecoveryMS)
		fmt.Fprintf(&b, "kwmds_recovery_replayed_epochs{%s} %d\n", lbl, m.Recovery.ReplayedEpochs)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

func writeFamily(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSummary emits one summary series: quantile samples plus _sum/_count.
func writeSummary(b *strings.Builder, name, labels string, s hdr.Summary, sum float64, count uint64) {
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}, {"0.999", s.P999}} {
		fmt.Fprintf(b, "%s{%s,quantile=\"%s\"} %g\n", name, labels, q.q, q.v)
	}
	fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, sum)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, count)
}
