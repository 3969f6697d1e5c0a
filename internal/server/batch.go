package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kwmds"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// maxSolveBatch caps how many cold solves one batch carries. A full batch
// occupies a single worker slot for its whole duration; the cap keeps one
// hot digest from turning the bounded pool into a convoy.
const maxSolveBatch = 64

// batchWindow is how long a drainer asks to wait before each claim so
// that concurrent cold solves of the same digest can join the batch. The
// timer overshoots it: time.Sleep(batchWindow) took p50 1.09 ms and p90
// 1.13 ms over 2000 calls on a 2-vCPU Intel Xeon host (linux/amd64,
// Go 1.24), and that measured cost is what every drain round pays.
const batchWindow = 200 * time.Microsecond

// solveBatcher groups in-flight cold solves by topology digest and runs
// each group through kwmds.DominatingSetMany on one pooled solver. The
// single-flight cache already coalesces *identical* requests; the batcher
// sits behind it and coalesces *distinct* requests (different seed, k,
// variant, …) that share a graph, amortizing solver acquisition and table
// setup across the group. The deterministic LP stage is shared through the
// pooled solver's LP memo, which solo solves hit too. Outputs are
// bit-identical to solo solves, so batching is invisible to clients except
// in latency.
type solveBatcher struct {
	mu sync.Mutex
	// groups maps digest → queued items. Key presence means a drainer
	// goroutine is alive for that digest: enqueue spawns one exactly when
	// it creates the key, and the drainer deletes the key (under mu) only
	// after observing an empty queue, so no item is ever left behind.
	groups map[string][]*batchItem

	batches       atomic.Int64 // DominatingSetMany calls issued
	batchedSolves atomic.Int64 // solves carried by those calls
}

// batchItem is one cold solve waiting for its group to run.
type batchItem struct {
	g            *graph.Graph
	digest       string
	algo, engine string
	opts         kwmds.Options
	done         chan struct{}
	resp         *graphio.SolveResponse
	err          error
}

// batchable reports whether this cold solve can ride a digest batch: the
// fastpath engine only (the batch runs on one pooled solver), and only the
// plain pipeline — frac answers a different response shape and kwcds runs a
// post-pass outside the batchable pipeline.
func (s *Server) batchable(algo string, opts kwmds.Options) bool {
	return !s.cfg.DisableBatching && opts.Sequential && algo != "frac" && algo != "kwcds"
}

// solveBatched enqueues one cold solve into its group and blocks until the
// group's drainer has run it. Groups key on digest plus the relabeling
// pointer: SolveMany requires one Relab across a batch, and a reordered
// item's graph must BE the relabeling's origin — so a preloaded reordered
// solve must never share a batch with a digest-equal inline upload (same
// bytes, different graph pointer, no relabeling).
func (s *Server) solveBatched(g *graph.Graph, digest, algo, engine string, opts kwmds.Options) (*graphio.SolveResponse, error) {
	// Admission gate for riders: a queued item occupies the same bounded
	// admission budget as a solo solve waiting for a slot. The counter is
	// released in drainGroup once the item's batch claims its worker slot —
	// depth-bounded only; QueueTimeout does not apply here (a batch claims
	// its slot as a unit).
	if limit := s.cfg.MaxQueue; limit > 0 {
		if s.queued.Add(1) > int64(limit) {
			s.queued.Add(-1)
			s.sheds.Add(1)
			return nil, fmt.Errorf("%w: admission queue full (%d waiting)", errOverloaded, limit)
		}
	}
	it := &batchItem{g: g, digest: digest, algo: algo, engine: engine, opts: opts, done: make(chan struct{})}
	key := digest
	if opts.Reordered != nil {
		key = fmt.Sprintf("%s|%p", digest, opts.Reordered)
	}
	b := &s.batcher
	b.mu.Lock()
	_, active := b.groups[key]
	b.groups[key] = append(b.groups[key], it)
	b.mu.Unlock()
	if !active {
		go s.drainGroup(key)
	}
	<-it.done
	return it.resp, it.err
}

// drainGroup runs batches for one group key until its queue is empty. Each
// round claims up to maxSolveBatch queued items (leaving the remainder for
// the next round), takes one worker-pool slot, and runs the claim as a
// single batch; requests arriving while a round computes queue up and form
// the next one — natural backpressure-driven batch sizing. The
// check-and-delete on the empty queue happens under the same mutex
// enqueues append under, so a drainer never exits with items pending.
func (s *Server) drainGroup(key string) {
	b := &s.batcher
	for {
		// Micro-batching window: park briefly before claiming so concurrent
		// arrivals can enqueue first. A spawned goroutine lands in the
		// scheduler's run-next slot; with few Ps and solves shorter than the
		// preemption quantum it would otherwise always outrun the handler
		// goroutines racing to enqueue and drain singleton batches forever.
		// Sleeping (rather than Gosched) also lets the netpoller deliver
		// requests still sitting in socket buffers. The sleep costs about
		// 1.1 ms, not the nominal 200 µs (see batchWindow): the latency tax
		// an idle server pays per drain round.
		time.Sleep(batchWindow)
		b.mu.Lock()
		pending := b.groups[key]
		if len(pending) == 0 {
			delete(b.groups, key)
			b.mu.Unlock()
			return
		}
		batch := pending
		if len(batch) > maxSolveBatch {
			batch = pending[:maxSolveBatch:maxSolveBatch]
			b.groups[key] = pending[maxSolveBatch:]
		} else {
			b.groups[key] = nil
		}
		b.mu.Unlock()

		s.sem <- struct{}{}
		// The claimed items leave the admission queue the moment their batch
		// holds a worker slot (mirrors admit's defer on the solo path).
		if s.cfg.MaxQueue > 0 {
			s.queued.Add(-int64(len(batch)))
		}
		s.runBatch(batch)
		<-s.sem
	}
}

// lpKey orders items so those sharing an LP configuration sit adjacent:
// the solver's LP memo holds one configuration, so SolveMany reuses the LP
// stage across *consecutive* equal configurations, and results are
// assigned per item, so the order is free to choose.
func lpKey(opts kwmds.Options) string {
	return fmt.Sprintf("%d|%t|%s", opts.K, opts.KnownDelta, weightsKey(opts.Weights))
}

// runBatch executes one claimed group. All items share a digest, so the
// first item's graph serves the whole batch (digest-equal graphs have
// identical CSR arrays — inline uploads of the same topology batch with
// preloaded references; reordered items group separately, and within such a
// group every item's graph is the shared relabeling's origin, satisfying the
// engine's identity check). Per-item elapsed_ms is the batch total divided
// evenly: the shared LP stage makes a truthful per-item split impossible,
// and the even split keeps throughput arithmetic (ops/sec × elapsed) honest.
func (s *Server) runBatch(batch []*batchItem) {
	b := &s.batcher
	b.batches.Add(1)
	b.batchedSolves.Add(int64(len(batch)))
	sort.SliceStable(batch, func(i, j int) bool { return lpKey(batch[i].opts) < lpKey(batch[j].opts) })
	optsList := make([]kwmds.Options, len(batch))
	for i, it := range batch {
		optsList[i] = it.opts
	}
	start := time.Now()
	results, err := kwmds.DominatingSetMany(batch[0].g, optsList)
	perItemMS := float64(time.Since(start)) / float64(time.Millisecond) / float64(len(batch))
	for i, it := range batch {
		if err != nil {
			it.err = err
		} else {
			resp := &graphio.SolveResponse{Digest: it.digest, Algo: it.algo, Engine: it.engine, N: it.g.N(), M: it.g.M()}
			fillResult(resp, results[i])
			resp.ElapsedMS = perItemMS
			it.resp = resp
		}
		close(it.done)
	}
}

// BatchStats reports the batcher's lifetime counters: DominatingSetMany
// calls issued and the solves they carried (batched_solves / solve_batches
// is the achieved amortization factor). Also served by /healthz.
func (s *Server) BatchStats() (batches, batchedSolves int64) {
	return s.batcher.batches.Load(), s.batcher.batchedSolves.Load()
}
