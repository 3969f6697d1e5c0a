package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"kwmds/internal/stats"
)

// span is one timed call the benchmark made into a layer. Parent is the
// span whose work this call mirrors or makes up (its logical parent): a
// mirror call runs after its parent ended, but its time still counts as
// part of the parent's. Op is the schedule index, -1 during setup.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Layer-specific work counted across the call: process CPU time
	// (fastpath.Fractional), heap bytes (kwmds.DominatingSet) or heap
	// objects (server.handler) allocated.
	CPUNs      int64 `json:"cpu_ns,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	Allocs     int64 `json:"allocs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run calls the same code.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.base))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// annotate sets the counted work of span id.
func (t *tracer) annotate(id int, f func(*span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	f(&t.spans[id])
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat is one per-layer metric: its value and how many spans (or
// ops) it was computed from.
type layerStat struct {
	Value float64 `json:"value"`
	Count int     `json:"count"`
}

// walCounters are the mirror WAL's counts over the mirrored mutations.
type walCounters struct {
	fsyncs, snapshots, mutates int64
}

// perLayer names every per-layer metric in BENCHMARK.json with its unit;
// setup marks the ones timed during set-up rather than per op. A layer
// that a workload never calls reads 0 with count 0. The parent fills in
// trace.overhead_pct, which compares the two runs, and the server's
// counters, which it reads from the untraced run.
var perLayer = []struct {
	name, unit string
	setup      bool
}{
	{"fastpath.lp_ms", "ms", false},
	{"fastpath.round_ms", "ms", false},
	{"fastpath.cpu_per_wall", "ratio", false},
	{"kwmds.overhead_ms", "ms", false},
	{"kwmds.alloc_mb_per_op", "MiB", false},
	{"kwmds.solve_many_ms", "ms", false},
	{"server.handler_us", "us", false},
	{"server.transport_us", "us", false},
	{"server.allocs_per_op", "count", false},
	{"server.cache_hit_ratio", "ratio", false},
	{"server.batch_size_mean", "count", false},
	{"server.batch_wait_ms", "ms", false},
	{"server.mutate_ms", "ms", false},
	{"graphio.decode_us", "us", false},
	{"graphio.encode_us", "us", false},
	{"graphio.digest_ms", "ms", false},
	{"graphio.load_ms", "ms", true},
	{"dyngraph.commit_ms", "ms", false},
	{"wal.append_ms", "ms", false},
	{"wal.sync_ms", "ms", false},
	{"wal.fsyncs_per_mutate", "count", false},
	{"wal.snapshots", "count", false},
	{"wal.open_ms", "ms", true},
	{"cli.build_ms", "ms", true},
	{"trace.residue_ms", "ms", false},
	{"trace.overhead_pct", "%", false},
}

// childrenOf indexes the logical children of every span.
func childrenOf(spans []span) [][]int {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	return children
}

// selfTime is span i's duration minus its logical children's durations.
func selfTime(spans []span, children [][]int, i int) time.Duration {
	d := spans[i].dur()
	for _, ch := range children[i] {
		d -= spans[ch].dur()
	}
	return d
}

// ledger turns the spans of a traced run into the per-layer metrics. The
// residue of an op is the self time of every span in it that has children,
// i.e. the op time no layer span accounts for.
func ledger(spans []span, c walCounters) map[string]layerStat {
	children := childrenOf(spans)
	self := func(i int) time.Duration { return selfTime(spans, children, i) }
	childNamed := func(i int, name string) int {
		for _, ch := range children[i] {
			if spans[ch].Name == name {
				return ch
			}
		}
		return -1
	}

	samples := map[string][]float64{}
	add := func(metric string, v float64) { samples[metric] = append(samples[metric], v) }
	// Spans whose duration is a per-layer metric as it stands.
	durOf := map[string]struct {
		metric string
		unit   time.Duration
	}{
		"fastpath.Fractional":         {"fastpath.lp_ms", time.Millisecond},
		"fastpath.Round":              {"fastpath.round_ms", time.Millisecond},
		"kwmds.DominatingSetMany":     {"kwmds.solve_many_ms", time.Millisecond},
		"server.handler":              {"server.handler_us", time.Microsecond},
		"client.mutate":               {"server.mutate_ms", time.Millisecond},
		"graphio.DecodeSolveRequest":  {"graphio.decode_us", time.Microsecond},
		"graphio.EncodeSolveResponse": {"graphio.encode_us", time.Microsecond},
		"graphio.DigestRaw":           {"graphio.digest_ms", time.Millisecond},
		"graphio.OpenMapped":          {"graphio.load_ms", time.Millisecond},
		"dyngraph.Commit":             {"dyngraph.commit_ms", time.Millisecond},
		"wal.Append":                  {"wal.append_ms", time.Millisecond},
		"wal.Sync":                    {"wal.sync_ms", time.Millisecond},
		"wal.Open":                    {"wal.open_ms", time.Millisecond},
		"cli.BuildServer":             {"cli.build_ms", time.Millisecond},
	}
	var lpCPU, lpWall, facadeBytes, facadeCalls, handlerAllocs, handlerCalls int64
	residue := map[int]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if m, ok := durOf[s.Name]; ok {
			add(m.metric, float64(s.dur())/float64(m.unit))
		}
		switch s.Name {
		case "fastpath.Fractional":
			lpCPU += s.CPUNs
			lpWall += int64(s.dur())
		case "kwmds.DominatingSet":
			add("kwmds.overhead_ms", ms(self(i)))
			facadeBytes += s.AllocBytes
			facadeCalls++
		case "server.handler":
			handlerAllocs += s.Allocs
			handlerCalls++
		case "client.solve":
			if sm := childNamed(i, "kwmds.DominatingSetMany"); sm >= 0 {
				add("server.batch_wait_ms", ms(s.dur()-spans[sm].dur()))
			}
		case "client.solve_cached":
			if childNamed(i, "server.handler") >= 0 {
				add("server.transport_us", us(self(i)))
			}
		}
		if s.Op >= 0 && len(children[i]) > 0 {
			residue[s.Op] += self(i)
		}
	}
	for _, r := range residue {
		add("trace.residue_ms", ms(r))
	}

	out := make(map[string]layerStat, len(perLayer))
	for _, m := range perLayer {
		if xs := samples[m.name]; len(xs) > 0 {
			out[m.name] = layerStat{Value: stats.Quantile(xs, 0.5), Count: len(xs)}
		}
	}
	out["fastpath.cpu_per_wall"] = layerStat{Value: quotient(lpCPU, lpWall), Count: len(samples["fastpath.lp_ms"])}
	out["kwmds.alloc_mb_per_op"] = layerStat{Value: quotient(facadeBytes, facadeCalls) / (1 << 20), Count: int(facadeCalls)}
	out["server.allocs_per_op"] = layerStat{Value: quotient(handlerAllocs, handlerCalls), Count: int(handlerCalls)}
	out["wal.fsyncs_per_mutate"] = layerStat{Value: quotient(c.fsyncs, c.mutates), Count: int(c.mutates)}
	out["wal.snapshots"] = layerStat{Value: float64(c.snapshots), Count: int(c.mutates)}
	return out
}

// serverLayers are the per-layer metrics that the server's own counters
// give: they need no tracing, so the parent reads them from the untraced
// run, whose traffic they describe.
func serverLayers(r *result) map[string]layerStat {
	return map[string]layerStat{
		"server.cache_hit_ratio": {Value: quotient(r.Hits, r.Hits+r.Misses), Count: int(r.Hits + r.Misses)},
		"server.batch_size_mean": {Value: quotient(r.Batched, r.Batches), Count: int(r.Batches)},
	}
}

// quotient is num / den, or 0 when den is 0.
func quotient(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// spanTable summarizes the spans by name: count, p50 duration and p50
// self time, in ms.
type spanRow struct {
	Name      string   `json:"name"`
	Count     int      `json:"count"`
	P50ms     float64  `json:"p50_ms"`
	SelfP50ms float64  `json:"self_p50_ms"`
	Children  []string `json:"children,omitempty"`
}

func spanTable(spans []span) []spanRow {
	children := childrenOf(spans)
	type acc struct {
		durs, selfs []float64
		kids        map[string]bool
	}
	byName := map[string]*acc{}
	var names []string
	for i := range spans {
		s := &spans[i]
		a := byName[s.Name]
		if a == nil {
			a = &acc{kids: map[string]bool{}}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		for _, ch := range children[i] {
			a.kids[spans[ch].Name] = true
		}
		a.durs = append(a.durs, ms(s.dur()))
		a.selfs = append(a.selfs, ms(selfTime(spans, children, i)))
	}
	rows := make([]spanRow, 0, len(names))
	for _, n := range names {
		a := byName[n]
		row := spanRow{Name: n, Count: len(a.durs), P50ms: stats.Quantile(a.durs, 0.5), SelfP50ms: stats.Quantile(a.selfs, 0.5)}
		for k := range a.kids {
			row.Children = append(row.Children, k)
		}
		sort.Strings(row.Children)
		rows = append(rows, row)
	}
	return rows
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
