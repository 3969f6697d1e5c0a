package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kwmds"
	"kwmds/internal/cli"
	"kwmds/internal/dyngraph"
	"kwmds/internal/fastpath"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/server"
	"kwmds/internal/stats"
	"kwmds/internal/wal"
)

// tracedOps is about how many measured ops a traced run traces, evenly
// spaced: enough for steady medians, few enough that the mirror calls after
// the measured phase stay short.
const tracedOps = 1000

// job is what the parent hands a child process: one workload run over
// inputs it already generated into files.
type job struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	// SetupOnly stops the run after the set-up, which it times.
	SetupOnly bool     `json:"setup_only,omitempty"`
	Graph     string   `json:"graph"`  // the .kwcsr input
	Digest    string   `json:"digest"` // its topology digest, computed by the generator
	DataDir   string   `json:"data_dir"`
	SpanFile  string   `json:"span_file,omitempty"`
	Sched     schedule `json:"schedule"`
}

// result is a child's report to the parent.
type result struct {
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Fails    []string `json:"fails,omitempty"`
	SetupS   float64  `json:"setup_s"`
	OpsPerS  float64  `json:"ops_per_s"`
	P50ms    float64  `json:"lat_p50_ms"`
	P90ms    float64  `json:"lat_p90_ms"`
	CPUms    float64  `json:"cpu_ms_per_op"`
	RSSMiB   float64  `json:"rss_peak_mb"`
	DSOverLB float64  `json:"ds_over_lb"`
	// The server's cache and batcher counters over the measured phase.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Batches int64 `json:"batches"`
	Batched int64 `json:"batched_solves"`
	// Traced runs only.
	Layers map[string]layerStat `json:"layers,omitempty"`
	Spans  []spanRow            `json:"spans,omitempty"`
}

// runChild runs the job at path in this process and writes the result as
// one JSON line to stdout.
func runChild(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var j job
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("job %s: %w", path, err)
	}
	w, err := lookupWorkload(j.Workload)
	if err != nil {
		return err
	}
	var tr *tracer
	if j.Trace {
		tr = newTracer()
	}
	res, err := runServe(&j, w, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		res.Spans = spanTable(tr.spans)
		if err := tr.write(j.SpanFile); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func openGraph(path string) (*graphio.MappedGraph, error) {
	m, err := graphio.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	if err := m.VerifyStructure(); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// mirrorFacade solves once through kwmds.DominatingSet as a child of span
// parent, with its LP stage and rounding mirrored under it, and returns the
// set size.
func mirrorFacade(tr *tracer, parent, op int, g *graph.Graph, opts kwmds.Options) (int, error) {
	_, bytes0 := heapAllocs()
	sp := tr.begin("kwmds.DominatingSet", parent, op)
	res, err := kwmds.DominatingSet(g, opts)
	tr.end(sp)
	_, bytes1 := heapAllocs()
	tr.annotate(sp, func(s *span) { s.AllocBytes = bytes1 - bytes0 })
	if err != nil {
		return 0, err
	}
	size, err := mirrorStages(tr, sp, op, g, opts)
	if err != nil {
		return 0, err
	}
	if size != res.Size {
		return 0, fmt.Errorf("fastpath stages give size %d, the facade %d", size, res.Size)
	}
	return size, nil
}

// mirrorStages runs the LP stage and the rounding of one solve as two
// separate calls on a pooled fastpath solver, as children of span parent,
// and returns the set size.
func mirrorStages(tr *tracer, parent, op int, g *graph.Graph, opts kwmds.Options) (int, error) {
	fo := fastpath.Options{K: opts.K, Seed: opts.Seed, Workers: opts.SolverWorkers}
	s := fastpath.Acquire(g.N())
	defer fastpath.Release(s)
	sp := tr.begin("fastpath.Fractional", parent, op)
	c0 := cpuTime()
	x, err := s.Fractional(g, fo)
	c := cpuTime() - c0
	tr.end(sp)
	tr.annotate(sp, func(s *span) { s.CPUNs = int64(c) })
	if err != nil {
		return 0, err
	}
	sp = tr.begin("fastpath.Round", parent, op)
	res, err := s.Round(g, x, fo)
	tr.end(sp)
	return res.Size, err
}

// client is one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t}, base: base}
}

// post sends body and reads the whole answer; the returned body aliases
// the client's buffer until the next call.
func (c *client) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// live is one server built by cli.BuildServer, listening on loopback.
type live struct {
	srv     *server.Server
	cleanup func()
	hs      *http.Server
	served  chan struct{}
	clients []*client
}

func startServer(j *job, w workload, dataDir string, tr *tracer) (*live, error) {
	sp := tr.begin("cli.BuildServer", -1, -1)
	srv, cleanup, err := cli.BuildServer(cli.ServeConfig{Preload: []string{"g=" + j.Graph}, DataDir: dataDir})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return nil, err
	}
	l := &live{srv: srv, cleanup: cleanup, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // ErrServerClosed once stopped
	}()
	for range w.conns {
		l.clients = append(l.clients, newClient("http://"+ln.Addr().String()))
	}
	return l, nil
}

func (l *live) stop() {
	for _, c := range l.clients {
		c.hc.CloseIdleConnections()
	}
	l.hs.Close()
	<-l.served
	l.cleanup()
}

// serveBench runs one serve workload's ops against a live server.
type serveBench struct {
	j       *job
	w       workload
	l       *live
	solves  [][]byte // solve request body per op
	mutates [][]byte // serve-churn: mutate body per op
	tr      *tracer
	f       failures
	// Traced runs only: every stride-th measured op is traced. opSpans and
	// answers hold each measured op's spans and solve answer, for the
	// mirror calls after the measured phase.
	stride  int
	opSpans []opSpans
	answers []graphio.SolveResponse
	mirror  *mirror
}

// opSpans are the spans of one measured op that its mirror calls hang
// under, -1 where the op was not traced or did not get that far.
type opSpans struct{ mutate, solve, cached int }

// mirror is the benchmark's own copy of the program's layers. After the
// measured phase of a traced run it repeats each traced op's work through
// them, so that their time can be charged to the op without lengthening it.
type mirror struct {
	g       *graph.Graph // the preload, opened by the benchmark
	mapped  *graphio.MappedGraph
	handler http.Handler // the live server, called in-process
	dyn     *dyngraph.Dynamic
	log     *wal.Log
	raw     [32]byte
	// The mirrored measured mutations, and the log's counters before them.
	mutates int64
	base    wal.Metrics
}

// runServe runs one serve workload: the set-up with its warm-up ops, then
// the measured ops over the workload's connections, then, when traced, the
// mirror calls, and last the checks.
func runServe(j *job, w workload, tr *tracer) (*result, error) {
	b := &serveBench{j: j, w: w, tr: tr}
	s := &j.Sched
	for _, k := range s.Keys {
		body, err := json.Marshal(graphio.SolveRequest{GraphRef: "g", K: k.K, Seed: k.Seed})
		if err != nil {
			return nil, err
		}
		b.solves = append(b.solves, body)
	}
	for _, muts := range s.Muts {
		body, err := json.Marshal(graphio.MutateRequest{Mutations: muts})
		if err != nil {
			return nil, err
		}
		b.mutates = append(b.mutates, body)
	}
	dataDir := ""
	if b.mutates != nil {
		dataDir = filepath.Join(j.DataDir, "serve")
	}

	t0 := time.Now()
	l, err := startServer(j, w, dataDir, tr)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	b.l = l
	if err := b.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res := &result{SetupS: time.Since(t0).Seconds()}
	if j.SetupOnly {
		return res, nil
	}

	n := s.measured()
	replies := make([]reply, n)
	var churn []churnReply
	if s.Muts != nil {
		churn = make([]churnReply, n)
	}
	if tr != nil {
		b.stride = max(1, n/tracedOps)
		b.opSpans = make([]opSpans, n)
		for i := range b.opSpans {
			b.opSpans[i] = opSpans{mutate: -1, solve: -1, cached: -1}
		}
		b.answers = make([]graphio.SolveResponse, n)
	}
	lat := make([]float64, n)
	var rates, p50s, p90s, cpus []float64
	_, hits0, misses0 := l.srv.Stats()
	batches0, batched0 := l.srv.BatchStats()
	// The measured ops run as s.Chunks consecutive chunks of equal length,
	// each timed on its own, and every timing metric is the median over the
	// chunks: the host's slow spells, which last seconds, then move the
	// figures only when they fill half the run.
	for k := range s.Chunks {
		from, to := s.Warm+k*n/s.Chunks, s.Warm+(k+1)*n/s.Chunks
		c0, t0 := cpuTime(), time.Now()
		b.drive(from, to, func(c *client, op int) {
			i := op - s.Warm
			var cr *churnReply
			if churn != nil {
				cr = &churn[i]
			}
			lat[i] = ms(b.op(c, op, i, &replies[i], cr))
		})
		wall, cpu := time.Since(t0), cpuTime()-c0
		chunk := lat[from-s.Warm : to-s.Warm]
		rates = append(rates, float64(to-from)/wall.Seconds())
		p50s = append(p50s, stats.Quantile(chunk, 0.5))
		p90s = append(p90s, stats.Quantile(chunk, 0.9))
		cpus = append(cpus, ms(cpu)/float64(to-from))
	}
	// The process's peak resident set, set-up included; the checks below
	// would raise it.
	res.RSSMiB = peakRSSMiB()
	res.Ops = n
	res.OpsPerS, res.CPUms = stats.Quantile(rates, 0.5), stats.Quantile(cpus, 0.5)
	res.P50ms, res.P90ms = stats.Quantile(p50s, 0.5), stats.Quantile(p90s, 0.5)
	_, hits1, misses1 := l.srv.Stats()
	batches1, batched1 := l.srv.BatchStats()
	res.Hits, res.Misses = hits1-hits0, misses1-misses0
	res.Batches, res.Batched = batches1-batches0, batched1-batched0

	if tr != nil {
		if err := b.openMirror(); err != nil {
			return nil, err
		}
		defer b.closeMirror()
		b.replayOnMirror(replies)
		m := b.mirror
		c := walCounters{mutates: m.mutates}
		if m.log != nil {
			wm := m.log.MetricsSnapshot()
			c.fsyncs, c.snapshots = wm.Fsyncs-m.base.Fsyncs, wm.Snapshots-m.base.Snapshots
		}
		res.Layers = ledger(tr.spans, c)
	}

	// Checks, after the measured phase: every size against an in-process
	// solve of the same graph, k and seed, whose set must dominate it.
	m, err := openGraph(j.Graph)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if churn != nil {
		if res.DSOverLB, err = checkChurn(m.Graph(), s, replies, churn, &b.f); err != nil {
			return nil, err
		}
	} else {
		want, lb := expectedAnswers(m.Graph(), s.Keys[s.Warm:]), kwmds.DualLowerBound(m.Graph())
		res.DSOverLB = checkSizes(replies, want, func(int) float64 { return lb }, &b.f)
	}
	res.Failed, res.Fails = b.f.n, b.f.reasons
	return res, nil
}

// drive runs schedule ops [from, to) over the live server's connections as
// closed loops, connection c taking every len(clients)-th op.
func (b *serveBench) drive(from, to int, do func(c *client, op int)) {
	var wg sync.WaitGroup
	for ci, c := range b.l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := from + ci; op < to; op += len(b.l.clients) {
				do(c, op)
			}
		}()
	}
	wg.Wait()
}

// warm runs the warm-up ops.
func (b *serveBench) warm() error {
	var errMu sync.Mutex
	var firstErr error
	b.drive(0, b.j.Sched.Warm, func(c *client, op int) {
		var r reply
		b.op(c, op, -1, &r, &churnReply{})
		if r.bad {
			errMu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("warm-up op %d failed", op)
			}
			errMu.Unlock()
		}
	})
	return firstErr
}

// op runs schedule op on c: serve-churn's mutate, the solve, and on
// serve-churn the same solve again, which the cache must answer. It returns
// the op latency, from the first request sent to the last answer read. i
// is the measured index (-1 during warm-up): traced, it labels the spans,
// and failures are recorded against it.
func (b *serveBench) op(c *client, op, i int, r *reply, cr *churnReply) time.Duration {
	tr := b.tr
	if i < 0 || tr != nil && i%b.stride != 0 {
		tr = nil // warm-up and the ops between traced ones are not traced
	}
	fail := func(format string, args ...any) {
		r.bad = true
		if i >= 0 {
			b.f.add(i, format, args...)
		}
	}
	sp := opSpans{mutate: -1, solve: -1, cached: -1}
	if tr != nil {
		defer func() { b.opSpans[i] = sp }()
	}
	root := tr.begin("client.op", -1, i)
	t0 := time.Now()
	if b.mutates != nil {
		sp.mutate = tr.begin("client.mutate", root, i)
		raw, err := c.post("/v1/graphs/g/mutate", b.mutates[op])
		tr.end(sp.mutate)
		var mr graphio.MutateResponse
		if err == nil {
			err = json.Unmarshal(raw, &mr)
		}
		if err != nil {
			tr.end(root)
			fail("mutate: %v", err)
			return time.Since(t0)
		}
		cr.mutEpoch, cr.mutDigest, cr.durable = mr.Epoch, mr.Digest, mr.Durable
	}
	sp.solve = tr.begin("client.solve", root, i)
	raw, err := c.post("/v1/solve", b.solves[op])
	tr.end(sp.solve)
	var again []byte
	if err == nil && b.mutates != nil {
		raw = bytes.Clone(raw) // the next post reuses the client's buffer
		sp.cached = tr.begin("client.solve_cached", root, i)
		again, err = c.post("/v1/solve", b.solves[op])
		tr.end(sp.cached)
	}
	d := time.Since(t0)
	tr.end(root)
	if err != nil {
		fail("solve: %v", err)
		return d
	}
	var sr graphio.SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		fail("solve: %v", err)
		return d
	}
	r.size = int32(sr.Size)
	if b.mutates != nil {
		cr.solEpoch, cr.solDigest, cr.cached = sr.Epoch, sr.Digest, sr.Cached
		var hr graphio.SolveResponse
		if err := json.Unmarshal(again, &hr); err != nil {
			fail("solve again: %v", err)
			return d
		}
		if !hr.Cached || hr.Epoch != sr.Epoch || hr.Digest != sr.Digest || hr.Size != sr.Size {
			fail("the same solve again answered cached=%t epoch %d digest %.12s size %d, after epoch %d digest %.12s size %d",
				hr.Cached, hr.Epoch, hr.Digest, hr.Size, sr.Epoch, sr.Digest, sr.Size)
		}
	} else {
		switch {
		case sr.Digest != b.j.Digest || sr.Epoch != 0:
			fail("solve answered digest %.12s epoch %d, the preload is %.12s at epoch 0", sr.Digest, sr.Epoch, b.j.Digest)
		case sr.Cached:
			fail("a solve of a seed no earlier op used answered cached=true")
		}
	}
	if tr != nil {
		b.answers[i] = sr
	}
	return d
}

// replayOnMirror repeats the measured ops' work on the mirror layers, in
// schedule order, under the traced ops' spans: every serve-churn mutation,
// which keeps the mirror store at the server's epoch, and each traced op's
// solve and codec calls. serve-churn's cached solves follow in a second
// pass, back to back: the heap's allocation counters are kept per span of
// memory, so a handler call between two solves would be charged with the
// solves' allocations.
func (b *serveBench) replayOnMirror(replies []reply) {
	s := &b.j.Sched
	for i, sp := range b.opSpans {
		op := s.Warm + i
		if s.Muts != nil {
			if err := b.mirrorMutate(sp.mutate, i, s.Muts[op]); err != nil {
				b.f.add(i, "mirror mutate: %v", err)
			}
		}
		if sp.solve >= 0 && !replies[i].bad {
			b.mirrorSolve(sp.solve, i, op)
			if sp.cached < 0 {
				b.mirrorCodec(sp.solve, i, op)
			}
		}
	}
	for i, sp := range b.opSpans {
		if sp.cached >= 0 && !replies[i].bad {
			b.mirrorCodec(b.mirrorCached(sp.cached, i), i, s.Warm+i)
		}
	}
}

// openMirror sets up the traced run's mirror layers.
func (b *serveBench) openMirror() error {
	sp := b.tr.begin("graphio.OpenMapped", -1, -1)
	m, err := openGraph(b.j.Graph)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	b.mirror = &mirror{g: m.Graph(), mapped: m, handler: b.l.srv.Handler()}
	if b.mutates == nil {
		return nil
	}
	sp = b.tr.begin("wal.Open", -1, -1)
	rec, err := wal.Open(filepath.Join(b.j.DataDir, "mirror"), m.Graph(), nil, wal.Options{})
	b.tr.end(sp)
	if err != nil {
		b.closeMirror()
		return err
	}
	b.mirror.dyn, b.mirror.log, b.mirror.raw = rec.Dyn, rec.Log, rec.Digest
	// Bring the mirror to the server's epoch: replay the warm-up ops.
	for op := 0; op < b.j.Sched.Warm; op++ {
		if err := b.mirrorMutate(-1, -1, b.j.Sched.Muts[op]); err != nil {
			b.closeMirror()
			return err
		}
	}
	b.mirror.mutates, b.mirror.base = 0, rec.Log.MetricsSnapshot()
	return nil
}

func (b *serveBench) closeMirror() {
	if b.mirror.log != nil {
		b.mirror.log.Close()
	}
	b.mirror.mapped.Close()
}

// mirrorMutate commits muts on the mirror store the way the server's
// mutate handler does: apply and commit, digest, log append, snapshot when
// due, fsync. It is traced as children of span parent, or not at all when
// parent is -1.
func (b *serveBench) mirrorMutate(parent, i int, muts []graphio.Mutation) error {
	tr, m := b.tr, b.mirror
	if parent < 0 {
		tr = nil
	}
	sp := tr.begin("dyngraph.Commit", parent, i)
	err := applyMutations(m.dyn, muts)
	rec := &wal.Record{Pre: m.raw}
	var delta *dyngraph.Delta
	if err == nil {
		rec.Adds, rec.Rems, rec.Weights, rec.Grew = m.dyn.NormalizedPending()
		delta, err = m.dyn.Commit()
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("graphio.DigestRaw", parent, i)
	m.raw = graphio.DigestRaw(delta.Next)
	tr.end(sp)
	rec.Epoch, rec.Post = delta.Epoch, m.raw
	sp = tr.begin("wal.Append", parent, i)
	err = m.log.Append(rec, false)
	tr.end(sp)
	if err != nil {
		return err
	}
	if m.log.ShouldSnapshot() {
		sp = tr.begin("wal.WriteSnapshot", parent, i)
		err = m.log.WriteSnapshot(m.dyn.Graph(), m.dyn.Costs(), delta.Epoch)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp = tr.begin("wal.Sync", parent, i)
	err = m.log.Sync()
	tr.end(sp)
	m.mutates++
	return err
}

// mirrorSolve solves op's request again as a child of span parent, at
// serve's one worker per solve, nesting each level in the one before so
// that its self time is what it adds: kwmds.DominatingSetMany (the
// batcher's primitive), kwmds.DominatingSet, then its two fastpath stages.
func (b *serveBench) mirrorSolve(parent, i, op int) {
	tr, m := b.tr, b.mirror
	g := m.g
	if m.dyn != nil {
		g = m.dyn.Graph()
	}
	served := b.answers[i].Size
	opts := facadeOpts(b.j.Sched.Keys[op])
	sp := tr.begin("kwmds.DominatingSetMany", parent, i)
	res, err := kwmds.DominatingSetMany(g, []kwmds.Options{opts})
	tr.end(sp)
	if err != nil {
		b.f.add(i, "mirror DominatingSetMany: %v", err)
	} else if res[0].Size != served {
		b.f.add(i, "mirror DominatingSetMany gives size %d, served %d", res[0].Size, served)
	}
	if size, err := mirrorFacade(tr, sp, i, g, opts); err != nil || size != served {
		b.f.add(i, "mirror DominatingSet gives size %d (err %v), served %d", size, err, served)
	}
}

// mirrorCached replays a cached solve through the server's handler,
// in-process, as a child of span parent, and returns the handler's span.
// After the measured phase only the last op's answer is still cached at the
// graph's current epoch, so it replays that request: the same cached path
// each op's second solve took.
func (b *serveBench) mirrorCached(parent, i int) int {
	tr := b.tr
	req, err := http.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(b.solves[len(b.solves)-1]))
	if err != nil {
		b.f.add(i, "mirror request: %v", err)
		return parent
	}
	w := &bufferWriter{h: http.Header{}}
	objs0, _ := heapAllocs()
	sp := tr.begin("server.handler", parent, i)
	b.mirror.handler.ServeHTTP(w, req)
	tr.end(sp)
	objs1, _ := heapAllocs()
	tr.annotate(sp, func(s *span) { s.Allocs = objs1 - objs0 })
	var sr graphio.SolveResponse
	switch {
	case w.code != 0 && w.code != http.StatusOK:
		b.f.add(i, "in-process handler answered %d", w.code)
	case json.Unmarshal(w.buf.Bytes(), &sr) != nil || !sr.Cached:
		b.f.add(i, "in-process replay of the last solve was not a cache hit")
	}
	return sp
}

// mirrorCodec decodes op's solve request and encodes its answer again, as
// children of span parent: the codec calls the handler makes.
func (b *serveBench) mirrorCodec(parent, i, op int) {
	tr := b.tr
	sp := tr.begin("graphio.DecodeSolveRequest", parent, i)
	_, err := graphio.DecodeSolveRequest(bytes.NewReader(b.solves[op]))
	tr.end(sp)
	if err != nil {
		b.f.add(i, "mirror decode: %v", err)
	}
	var out bytes.Buffer
	sp = tr.begin("graphio.EncodeSolveResponse", parent, i)
	err = json.NewEncoder(&out).Encode(&b.answers[i])
	tr.end(sp)
	if err != nil {
		b.f.add(i, "mirror encode: %v", err)
	}
}

// bufferWriter is the in-process handler's response writer.
type bufferWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *bufferWriter) Header() http.Header         { return w.h }
func (w *bufferWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *bufferWriter) WriteHeader(code int)        { w.code = code }
