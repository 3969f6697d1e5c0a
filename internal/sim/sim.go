// Package sim simulates the synchronous message-passing model (LOCAL with
// bounded messages) that the paper's algorithms are stated in.
//
// # Execution model
//
// The engine is a round-driven scheduler: a fixed worker pool (one worker
// per available CPU by default) sweeps every live node once per round. A
// node's program is a resumable step function (StepFunc) that receives the
// messages delivered to the node this round, performs local computation,
// stages outgoing messages with Send/Broadcast, and reports whether the
// node is still running. One full sweep of the live nodes is exactly one
// communication round of the paper's model; there is no per-node goroutine
// and no global barrier on the hot path.
//
// # Memory model
//
// Message delivery uses preallocated CSR-shaped buffers indexed off the
// graph's adjacency offsets: the directed edge u→v owns one payload slot in
// a receiver-major slot array, so a sender writes its slot without
// contending with anyone and a receiver reads its slots in adjacency order
// — inboxes come out sorted by sender id by construction, with no sorting
// and no per-round allocation. Slot arrays are double-buffered (cur/next)
// and reused across rounds, which means an inbox slice handed to a step is
// only valid until the node's next step; a step that needs a message beyond
// the round must copy it. Statistics counters are sharded per node
// (sender-owned) and merged when the run completes; nothing on the
// steady-state path takes a lock.
//
// The engine accounts for rounds, messages (one per (sender, receiver)
// pair and round, as the paper counts them) and message size in bits (each
// Payload reports its wire width), so the paper's complexity claims — 2k²
// rounds, O(k²∆) messages per node, O(log ∆) bits per message — become
// measurable quantities.
//
// # Determinism
//
// A node's step depends only on its own state and its inbox, inboxes are a
// pure function of the previous round's sends, and per-node randomness is
// derived from (engine seed, node id) — so results are bit-identical across
// runs, worker counts and GOMAXPROCS settings.
package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"kwmds/internal/graph"
	"kwmds/internal/stats"
)

// Payload is a message body. Bits reports the width of the payload's compact
// wire encoding; the engine sums it for the bit-complexity statistics.
type Payload interface{ Bits() int }

// Message is a delivered payload tagged with its sender.
type Message struct {
	From int
	Data Payload
}

// StepFunc advances one node by one synchronous round. The inbox holds the
// messages delivered to the node this round, sorted by sender id; it is
// only valid for the duration of the call. Local computation and
// Send/Broadcast staging happen inside the step; returning false halts the
// node (messages staged in the final step are still delivered).
type StepFunc func(nd *Node, inbox []Message) bool

// Machine builds the per-node step function. It is called once per vertex
// before round 0; per-node state lives in the returned closure. The first
// step of every node receives an empty inbox.
type Machine func(nd *Node) StepFunc

// Node is a step's handle to its vertex: identity, neighborhood, randomness
// and outgoing messages.
type Node struct {
	id     int
	engine *Engine
	rng    *rand.Rand
}

// ID returns the node's vertex id. The paper's model allows unique ids; the
// algorithms in this repository use them only for tie-breaking.
func (nd *Node) ID() int { return nd.id }

// Degree returns the number of neighbors.
func (nd *Node) Degree() int { return nd.engine.g.Degree(nd.id) }

// Neighbors returns the sorted neighbor ids. The slice aliases engine
// storage and must not be modified.
func (nd *Node) Neighbors() []int32 { return nd.engine.g.Neighbors(nd.id) }

// Round returns the number of completed communication rounds. It is a
// single atomic load — safe to call from any step at any time.
func (nd *Node) Round() int { return int(nd.engine.round.Load()) }

// Rand returns this node's deterministic random stream, derived from the
// engine seed and the node id.
func (nd *Node) Rand() *rand.Rand {
	if nd.rng == nil {
		nd.rng = stats.NewStreamRand(nd.engine.seed, int64(nd.id))
	}
	return nd.rng
}

// Send stages a message to a single neighbor for delivery at the next
// round boundary. Sending to a non-neighbor panics: the communication graph
// is the network. So does a second message to the same neighbor in one
// round: the model carries one message per edge per round.
func (nd *Node) Send(to int, p Payload) {
	e := nd.engine
	lo, hi := e.off[nd.id], e.off[nd.id+1]
	i, ok := slices.BinarySearch(e.adj[lo:hi], int32(to))
	if !ok {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbor %d", nd.id, to))
	}
	if p == nil {
		panic(fmt.Sprintf("sim: node %d sent a nil payload", nd.id))
	}
	nd.stage(int(lo)+i, p)
	e.sentMsgs[nd.id]++
	e.sentBits[nd.id] += int64(p.Bits())
}

// Broadcast stages the same payload to every neighbor. Like Send, it panics
// if a message to one of them is already staged this round.
func (nd *Node) Broadcast(p Payload) {
	e := nd.engine
	if p == nil {
		panic(fmt.Sprintf("sim: node %d sent a nil payload", nd.id))
	}
	lo, hi := int(e.off[nd.id]), int(e.off[nd.id+1])
	if lo == hi {
		return
	}
	for pos := lo; pos < hi; pos++ {
		nd.stage(pos, p)
	}
	deg := int64(hi - lo)
	e.sentMsgs[nd.id] += deg
	e.sentBits[nd.id] += deg * int64(p.Bits())
}

// stage writes a payload into the slot of directed edge position pos. The
// slot is owned by this sender, so the write is contention-free. The model
// carries one message per edge per round: a second message on the same
// edge in the same round panics, which fails the run.
func (nd *Node) stage(pos int, p Payload) {
	e := nd.engine
	slot := e.inv[pos]
	r := int32(e.round.Load())
	if e.stampNext[slot] == r {
		panic(fmt.Sprintf("sim: node %d sent a second message to %d in one round", nd.id, e.adj[pos]))
	}
	e.next[slot] = p
	e.stampNext[slot] = r
}

// worker is the per-worker shard of the engine's mutable state. Each sweep
// a worker steps a contiguous chunk of the live list; its panic report is
// read by the coordinator at the round boundary, so the steady state has no
// shared writes at all.
type worker struct {
	curNode  int32 // node currently being stepped (for panic reports)
	panicID  int32 // node whose step panicked this sweep (-1 = none)
	panicVal any
	_        [64]byte // pad to keep workers' hot fields off shared cache lines
}

// Stats aggregates a run's measured complexity.
type Stats struct {
	Rounds int // communication rounds executed
	// Messages is the total of (sender, receiver) deliveries. A node sends
	// at most one message to each neighbor per round (a second one on the
	// same edge in the same round fails the run), so this counts each pair
	// once per round it communicates.
	Messages int64
	Bits     int64 // total payload bits as reported by Payload.Bits
	MaxMsgs  int64 // maximum messages sent by any single node
	MaxBits  int64 // maximum payload bits sent by any single node
}

// Engine executes step machines over a graph in lockstep rounds.
type Engine struct {
	g         *graph.Graph
	seed      int64
	maxRounds int
	nworkers  int

	// Graph CSR (aliases graph storage) and the transpose index: for the
	// directed edge at position p (u's adjacency entry pointing at v),
	// inv[p] is the position of u in v's adjacency — i.e. the receiver-major
	// slot the edge owns in cur/next.
	off, adj []int32
	inv      []int32

	// Receiver-major double-buffered message slots. A slot holds a live
	// message iff its stamp equals the round the message was staged in;
	// stale stamps make clearing unnecessary.
	cur, next           []Payload
	stampCur, stampNext []int32

	// msgbuf is the receiver-major inbox backing store: node v's inbox is
	// built in msgbuf[off[v]:off[v+1]] each sweep and reused next round.
	msgbuf []Message

	round atomic.Int64

	nodes []Node
	steps []StepFunc
	more  []bool  // per-node continue flag written by the stepping worker
	live  []int32 // ids of running nodes, compacted every round

	sentMsgs []int64 // per-sender tallies (sender-owned: contention-free)
	sentBits []int64
	workers  []worker

	stats  Stats
	ran    bool
	runErr error
}

// Option configures an Engine.
type Option func(*Engine)

// WithSeed sets the base seed for all per-node random streams (default 1).
func WithSeed(seed int64) Option { return func(e *Engine) { e.seed = seed } }

// WithMaxRounds aborts the run with an error if more than max rounds execute
// (default 1<<20). This turns livelocked machines into test failures instead
// of hangs.
func WithMaxRounds(max int) Option { return func(e *Engine) { e.maxRounds = max } }

// WithWorkers fixes the scheduler's worker-pool size (default: GOMAXPROCS).
// Results are identical for every worker count; the option exists for
// determinism tests and for bounding parallelism.
func WithWorkers(n int) Option { return func(e *Engine) { e.nworkers = n } }

// New creates an engine over g.
func New(g *graph.Graph, opts ...Option) *Engine {
	e := &Engine{g: g, seed: 1, maxRounds: 1 << 20}
	for _, o := range opts {
		o(e)
	}
	return e
}

// RunMachine executes one step machine per vertex, sweeping all live nodes
// once per round with the worker pool, and blocks until every node halts.
// It reports the run's statistics and the first step panic (or the
// round-limit abort) as an error. RunMachine may be called once per Engine.
func (e *Engine) RunMachine(m Machine) (*Stats, error) {
	if e.ran {
		return nil, errors.New("sim: engine already ran")
	}
	e.ran = true
	n := e.g.N()
	e.initBuffers(n)
	e.nodes = make([]Node, n)
	e.steps = make([]StepFunc, n)
	e.more = make([]bool, n)
	e.live = make([]int32, n)
	for v := 0; v < n; v++ {
		nd := &e.nodes[v]
		nd.id = v
		nd.engine = e
		e.steps[v] = m(nd)
		e.live[v] = int32(v)
	}
	nw := e.nworkers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > n {
		nw = n
	}
	if nw < 1 {
		nw = 1
	}
	e.workers = make([]worker, nw)
	for w := range e.workers {
		e.workers[w].panicID = -1
	}

	e.runLoop(nw)

	e.stats.Rounds = int(e.round.Load())
	for v := 0; v < n; v++ {
		e.stats.Messages += e.sentMsgs[v]
		e.stats.Bits += e.sentBits[v]
		if e.sentMsgs[v] > e.stats.MaxMsgs {
			e.stats.MaxMsgs = e.sentMsgs[v]
		}
		if e.sentBits[v] > e.stats.MaxBits {
			e.stats.MaxBits = e.sentBits[v]
		}
	}
	return &e.stats, e.runErr
}

// initBuffers sizes every per-edge structure off the graph's CSR offsets
// and builds the transpose index. All of it is allocated once per run and
// reused across every round.
func (e *Engine) initBuffers(n int) {
	e.off, e.adj = e.g.CSR()
	m := len(e.adj)
	e.inv = make([]int32, m)
	pos := make([]int32, n)
	copy(pos, e.off[:n])
	// Senders are visited in increasing id order and adjacency lists are
	// sorted, so pos[v] advances through v's slots in exactly sender order:
	// the transpose lands each directed edge on its receiver-major slot.
	for u := 0; u < n; u++ {
		for p := e.off[u]; p < e.off[u+1]; p++ {
			v := e.adj[p]
			e.inv[p] = pos[v]
			pos[v]++
		}
	}
	e.cur = make([]Payload, m)
	e.next = make([]Payload, m)
	e.stampCur = make([]int32, m)
	e.stampNext = make([]int32, m)
	for i := range e.stampCur {
		e.stampCur[i] = -2 // rounds are ≥ 0 and the round-0 inbox wants stamp -1
		e.stampNext[i] = -2
	}
	e.msgbuf = make([]Message, m)
	e.sentMsgs = make([]int64, n)
	e.sentBits = make([]int64, n)
}

// runLoop is the scheduler: sweep all live nodes with the worker pool,
// merge the per-worker shards, compact the live list, advance the round,
// swap the delivery buffers — until every node has halted or the run
// aborts.
func (e *Engine) runLoop(nw int) {
	jobs := make([]chan [2]int, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		jobs[w] = make(chan [2]int)
		go func(w int) {
			for rng := range jobs[w] {
				e.sweepChunk(&e.workers[w], rng[0], rng[1])
				wg.Done()
			}
		}(w)
	}
	defer func() {
		for _, c := range jobs {
			close(c)
		}
	}()

	for len(e.live) > 0 {
		nl := len(e.live)
		per := (nl + nw - 1) / nw
		for w := 0; w < nw; w++ {
			lo := w * per
			if lo >= nl {
				break
			}
			hi := min(lo+per, nl)
			wg.Add(1)
			jobs[w] <- [2]int{lo, hi}
		}
		wg.Wait()

		panicID := int32(-1)
		var pval any
		for w := range e.workers {
			wk := &e.workers[w]
			if wk.panicID >= 0 {
				if panicID < 0 || wk.panicID < panicID {
					panicID, pval = wk.panicID, wk.panicVal
				}
				wk.panicID = -1
				wk.panicVal = nil
			}
		}
		if panicID >= 0 {
			e.runErr = fmt.Errorf("sim: node %d panicked: %v", panicID, pval)
			return
		}

		kept := e.live[:0]
		for _, v := range e.live {
			if e.more[v] {
				kept = append(kept, v)
			}
		}
		e.live = kept
		if len(e.live) == 0 {
			// Every node halted this sweep: the run is over and no round
			// boundary is crossed (final staged messages are still counted).
			return
		}

		r := e.round.Add(1)
		if int(r) > e.maxRounds {
			e.runErr = fmt.Errorf("sim: exceeded %d rounds", e.maxRounds)
			return
		}
		e.cur, e.next = e.next, e.cur
		e.stampCur, e.stampNext = e.stampNext, e.stampCur
	}
}

// sweepChunk steps the live nodes in live[lo:hi]. A panicking step aborts
// the chunk; the coordinator turns the lowest panicking node id of the
// sweep into the run error, keeping the report deterministic.
func (e *Engine) sweepChunk(wk *worker, lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			wk.panicID = wk.curNode
			wk.panicVal = r
		}
	}()
	for i := lo; i < hi; i++ {
		v := e.live[i]
		wk.curNode = v
		e.more[v] = e.steps[v](&e.nodes[v], e.buildInbox(v))
	}
}

// buildInbox assembles node v's inbox for the current round in v's region
// of the shared backing store: a scan of v's receiver-major slots in
// adjacency order, so the result is sorted by sender id by construction.
func (e *Engine) buildInbox(v int32) []Message {
	lo, hi := e.off[v], e.off[v+1]
	want := int32(e.round.Load()) - 1 // stamp of messages staged last sweep
	buf := e.msgbuf[lo:lo:hi]
	for p := lo; p < hi; p++ {
		if e.stampCur[p] == want {
			buf = append(buf, Message{From: int(e.adj[p]), Data: e.cur[p]})
		}
	}
	return buf
}
