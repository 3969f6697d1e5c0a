// Package dyngraph is the dynamic-graph engine: a mutable overlay over the
// immutable CSR substrate of internal/graph. Mutations — edge insertions
// and removals, vertex additions, per-vertex weight updates — are buffered
// and applied in epoch batches: Commit merges the pending deltas into the
// previous snapshot's sorted adjacency (no re-sort, no dedup sweep, no
// edge-list round trip), producing a new immutable snapshot plus a Delta
// describing exactly which vertices' neighborhoods changed. A batch that
// keeps n produces a paged snapshot (graph.Successor): the parent's
// n/64-entry page table with new pages for the 64-vertex blocks it
// touched, so an epoch costs its delta, not the graph. A batch that
// changes n, one over a file-mapped parent, and one that would leave more
// than half of the blocks paged compact into a fresh flat snapshot
// instead. The Delta is what the serve subsystem's mutation endpoint
// reports back to clients and what the write-ahead log records. A snapshot
// that kept the vertex count also carries its lineage (graph.Lineage): the
// previous snapshot and the touched vertices, from which a fastpath solver
// holding the previous snapshot repairs its per-vertex state and replays
// its LP stage instead of recomputing them.
//
// Concurrency: a Dynamic is not safe for concurrent use; callers that share
// one (the serve subsystem) must serialize mutations externally. Snapshots
// returned by Graph and Commit are immutable and remain valid forever —
// committing never touches previously returned graphs.
package dyngraph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"kwmds/internal/graph"
)

// Delta describes one committed epoch transition.
type Delta struct {
	// Prev and Next are the snapshots before and after the commit. Prev is
	// nil only for the zero-value Dynamic's first commit.
	Prev, Next *graph.Graph
	// Touched lists, in increasing order, every vertex whose adjacency list
	// changed (endpoints of inserted/removed edges and newly added
	// vertices). Weight-only updates do not touch. The slice's backing
	// store is reused by the next Commit on the same Dynamic; callers that
	// keep it past that point must copy it.
	Touched []int32
	// Epoch is the epoch number Next belongs to (the number of commits).
	Epoch int64
	// Grew reports whether the vertex count increased this epoch.
	Grew bool
}

// Dynamic is a mutable graph overlay. Use New to wrap a starting snapshot.
type Dynamic struct {
	g     *graph.Graph
	epoch int64
	costs []float64 // nil until the first weight update

	nextN int // current n plus pending vertex additions

	// Pending edge ops. The pend map records, for edges whose interactive
	// (AddEdge/RemoveEdge) state differs from the snapshot, the desired
	// final state — it exists so interactive mutations are validated at
	// call time and cancel each other cleanly. Batch deltas
	// (ApplyEdgeDeltas) bypass the map and are validated during the commit
	// merge instead; see the method comment for the mixing rules.
	pend     map[[2]int32]int8 // +1 edge will exist, -1 edge will not
	batchAdd [][2]int32
	batchRem [][2]int32
	pendW    map[int32]float64

	// Commit scratch, reused across epochs. The per-vertex entries (counts
	// and touched marks) are all zero between commits: a commit sets them
	// only at the vertices its batch names and clears those before it
	// returns, on success and on every error.
	addCnt  []int32 // per-vertex directed add/remove counts, then fill cursors
	remCnt  []int32
	mark    []uint64 // touched vertices, one bit each
	addOff  []int32  // touched vertex i's insertions: addList[addOff[i]:addOff[i+1]]
	remOff  []int32
	addList []int32
	remList []int32
	touched []int32 // Delta.Touched backing store, reused per commit
}

// New wraps a starting snapshot at epoch 0. A nil g starts from the empty
// graph.
func New(g *graph.Graph) *Dynamic {
	if g == nil {
		g = graph.MustNew(0, nil)
	}
	d := &Dynamic{g: g, nextN: g.N()}
	d.resetBatch()
	return d
}

// NewAt wraps a restored snapshot at a known epoch with an optional cost
// vector — the recovery constructor: a WAL replay resumes a Dynamic exactly
// where the logged history left it, so subsequent commits continue the
// epoch sequence instead of restarting at zero. costs, when non-nil, must
// have length g.N(); the Dynamic takes ownership of the slice.
func NewAt(g *graph.Graph, epoch int64, costs []float64) *Dynamic {
	d := New(g)
	if costs != nil && len(costs) != d.g.N() {
		panic(fmt.Sprintf("dyngraph: NewAt costs length %d != n %d", len(costs), d.g.N()))
	}
	d.epoch = epoch
	d.costs = costs
	return d
}

// Graph returns the current committed snapshot.
func (d *Dynamic) Graph() *graph.Graph { return d.g }

// Epoch returns the number of commits applied so far.
func (d *Dynamic) Epoch() int64 { return d.epoch }

// N returns the vertex count including pending vertex additions.
func (d *Dynamic) N() int { return d.nextN }

// Costs returns the current per-vertex weight vector, or nil if no weight
// was ever set. The slice is owned by the Dynamic; callers must copy it if
// they keep it across a Commit.
func (d *Dynamic) Costs() []float64 { return d.costs }

// WeightUpdate is one pending per-vertex weight change, as reported by
// NormalizedPending (and serialized into WAL epoch records).
type WeightUpdate struct {
	V int32
	W float64
}

// NormalizedPending returns the net effect of the buffered mutations in a
// canonical form: edge endpoints oriented (min, max) and sorted
// lexicographically, weight updates sorted by vertex, plus the number of
// pending vertex additions. Interactive edge ops come from the pending map
// — already net, since an add and a remove of the same edge cancel there —
// and batch deltas (ApplyEdgeDeltas) are passed through reoriented: a batch
// that goes on to Commit contains no duplicates or conflicts, so together
// the lists are exactly the epoch's net edge delta. This is what the WAL
// serializes for an epoch: replaying the lists through ApplyEdgeDeltas +
// Commit reproduces the committed snapshot bit for bit.
func (d *Dynamic) NormalizedPending() (add, rem [][2]int32, weights []WeightUpdate, grew int) {
	for k, s := range d.pend {
		if s > 0 {
			add = append(add, k)
		} else {
			rem = append(rem, k)
		}
	}
	for _, e := range d.batchAdd {
		add = append(add, edgeKey(e[0], e[1]))
	}
	for _, e := range d.batchRem {
		rem = append(rem, edgeKey(e[0], e[1]))
	}
	sortPairs(add)
	sortPairs(rem)
	for v, w := range d.pendW {
		weights = append(weights, WeightUpdate{V: v, W: w})
	}
	sort.Slice(weights, func(i, j int) bool { return weights[i].V < weights[j].V })
	return add, rem, weights, d.nextN - d.g.N()
}

func sortPairs(ps [][2]int32) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

// Discard drops every buffered mutation, returning to the committed state.
func (d *Dynamic) Discard() {
	d.pend = nil
	d.resetBatch()
	d.pendW = nil
	d.nextN = d.g.N()
}

func (d *Dynamic) resetBatch() {
	d.batchAdd = d.batchAdd[:0]
	d.batchRem = d.batchRem[:0]
}

func edgeKey(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (d *Dynamic) checkEndpoints(op string, u, v int) error {
	if u == v {
		return fmt.Errorf("dyngraph: %s: self-loop at vertex %d", op, u)
	}
	if u < 0 || u >= d.nextN || v < 0 || v >= d.nextN {
		return fmt.Errorf("dyngraph: %s: edge (%d,%d) out of range [0,%d)", op, u, v, d.nextN)
	}
	return nil
}

// effective reports whether the edge exists after the interactive pending
// ops (batch deltas are not consulted — they are validated at Commit).
func (d *Dynamic) effective(key [2]int32) bool {
	if s, ok := d.pend[key]; ok {
		return s > 0
	}
	return d.baseHas(key)
}

func (d *Dynamic) baseHas(key [2]int32) bool {
	n := int32(d.g.N())
	return key[0] < n && key[1] < n && d.g.HasEdge(int(key[0]), int(key[1]))
}

// AddEdge buffers the insertion of edge {u,v}. Inserting an edge that
// already exists (in the snapshot or earlier in this batch) is an error.
func (d *Dynamic) AddEdge(u, v int) error {
	if err := d.checkEndpoints("AddEdge", u, v); err != nil {
		return err
	}
	key := edgeKey(int32(u), int32(v))
	if d.effective(key) {
		return fmt.Errorf("dyngraph: AddEdge: duplicate edge (%d,%d)", u, v)
	}
	if d.baseHas(key) { // was removed earlier in this batch; cancel out
		delete(d.pend, key)
		return nil
	}
	if d.pend == nil {
		d.pend = make(map[[2]int32]int8)
	}
	d.pend[key] = 1
	return nil
}

// RemoveEdge buffers the removal of edge {u,v}. Removing an edge that does
// not exist is an error.
func (d *Dynamic) RemoveEdge(u, v int) error {
	if err := d.checkEndpoints("RemoveEdge", u, v); err != nil {
		return err
	}
	key := edgeKey(int32(u), int32(v))
	if !d.effective(key) {
		return fmt.Errorf("dyngraph: RemoveEdge: no edge (%d,%d)", u, v)
	}
	if !d.baseHas(key) { // was added earlier in this batch; cancel out
		delete(d.pend, key)
		return nil
	}
	if d.pend == nil {
		d.pend = make(map[[2]int32]int8)
	}
	d.pend[key] = -1
	return nil
}

// AddVertex buffers the addition of an isolated vertex and returns its id
// (ids are assigned densely after the current maximum). Edges to the new
// vertex may be buffered in the same batch.
func (d *Dynamic) AddVertex() int {
	id := d.nextN
	d.nextN++
	return id
}

// SetWeight buffers a per-vertex weight update. Weights follow the facade's
// domain rule (finite, ≥ 1); vertices never assigned a weight default to 1
// once any weight is set.
func (d *Dynamic) SetWeight(v int, w float64) error {
	if v < 0 || v >= d.nextN {
		return fmt.Errorf("dyngraph: SetWeight: vertex %d out of range [0,%d)", v, d.nextN)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 1 {
		return fmt.Errorf("dyngraph: SetWeight: weight %v outside [1, ∞)", w)
	}
	if d.pendW == nil {
		d.pendW = make(map[int32]float64)
	}
	d.pendW[int32(v)] = w
	return nil
}

// ApplyEdgeDeltas buffers a batch of edge changes without the
// per-operation map bookkeeping and eager validation of
// AddEdge/RemoveEdge — the path for bulk churn (a mobility epoch's link
// events). The whole batch is validated at Commit, fused into the passes
// that must touch every entry anyway: endpoint range/self-loop problems
// and existence conflicts (duplicate insertions, removals of absent
// edges, collisions with interactive ops of the same batch) fail the
// Commit without changing the committed state. Entries may use either
// endpoint orientation.
func (d *Dynamic) ApplyEdgeDeltas(add, remove [][2]int32) {
	d.batchAdd = append(d.batchAdd, add...)
	d.batchRem = append(d.batchRem, remove...)
}

// zeroed returns buf re-sliced to n entries. Commit's per-vertex scratch
// is all zero between commits, so reuse needs no clearing pass and growth
// needs no copy.
func zeroed[T int32 | uint64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Commit applies the pending batch and returns the epoch's Delta. Its
// bookkeeping is O(batch + touched): the batch's endpoints are counted and
// marked in per-vertex scratch that is zero between commits, the touched
// vertices are read off the marks word by word, and only their delta runs
// are grouped, sorted and checked for duplicates. ∆ follows from the old
// ∆ and the touched vertices' new degrees. A batch that keeps n then
// writes only the blocks holding touched vertices, as pages over the
// parent's page table (graph.Successor): n/64 pointers plus those pages.
// A batch that changes n, a parent that is a file mapping, or a page
// table past its compaction share (compactShare) instead compacts: a fresh
// flat CSR whose untouched runs are bulk copies. Both merge each touched
// vertex's sorted old list with its sorted delta runs the same way
// (mergeVertex). On a validation error (duplicate insertion, removal of an
// absent edge) the committed state is unchanged and the pending batch is
// kept for inspection; Discard drops it.
func (d *Dynamic) Commit() (*Delta, error) {
	oldN := d.g.N()
	n := d.nextN

	nAdd, nRem := len(d.batchAdd), len(d.batchRem)
	for _, s := range d.pend {
		if s > 0 {
			nAdd++
		} else {
			nRem++
		}
	}
	if nAdd == 0 && nRem == 0 && n == oldN {
		// No adjacency change at all (weight-only or empty batch): the
		// current snapshot IS the next epoch's topology. Skipping the
		// rebuild keeps weight-only mutations O(pending) — and lets
		// callers that key on the graph (the server's digest cache) see an
		// unchanged identity.
		d.applyWeights(n)
		d.touched = d.touched[:0]
		delta := &Delta{Prev: d.g, Next: d.g, Touched: d.touched, Epoch: d.epoch + 1}
		d.epoch++
		d.pend = nil
		d.resetBatch()
		d.pendW = nil
		return delta, nil
	}
	d.addCnt = zeroed(d.addCnt, n)
	d.remCnt = zeroed(d.remCnt, n)
	d.mark = zeroed(d.mark, (n+63)/64)
	if cap(d.addList) < 2*nAdd {
		d.addList = make([]int32, 2*nAdd)
	}
	if cap(d.remList) < 2*nRem {
		d.remList = make([]int32, 2*nRem)
	}
	d.addList, d.remList = d.addList[:2*nAdd], d.remList[:2*nRem]

	// Count each vertex's directed entries and mark it touched. Map entries
	// are folded in first (their order is irrelevant: runs are sorted
	// below), then the batch lists, whose count pass doubles as their
	// validation (endpoint range, self-loops) and as the detection of a
	// strictly lex-increasing normalized batch — the shape
	// mobility.EdgeDeltas emits — whose runs need no sort. A failed
	// validation clears what the pass set so far.
	mark, addCnt, remCnt := d.mark, d.addCnt, d.remCnt
	for key, s := range d.pend {
		if s > 0 {
			countEdge(addCnt, mark, key[0], key[1])
		} else {
			countEdge(remCnt, mark, key[0], key[1])
		}
	}
	limit := int32(n)
	scan := func(list [][2]int32, cnt []int32, op string) (bool, error) {
		srt := true
		t := [2]int32{-1, -1}
		for _, e := range list {
			if e[0] == e[1] || e[0] < 0 || e[0] >= limit || e[1] < 0 || e[1] >= limit {
				d.clearMarks()
				return false, d.checkEndpoints(op, int(e[0]), int(e[1]))
			}
			if srt && (e[0] >= e[1] || e[0] < t[0] || (e[0] == t[0] && e[1] <= t[1])) {
				srt = false
			}
			t = e
			countEdge(cnt, mark, e[0], e[1])
		}
		return srt, nil
	}
	addSorted, err := scan(d.batchAdd, addCnt, "ApplyEdgeDeltas(add)")
	if err != nil {
		return nil, err
	}
	remSorted, err := scan(d.batchRem, remCnt, "ApplyEdgeDeltas(remove)")
	if err != nil {
		return nil, err
	}
	sorted := len(d.pend) == 0 && addSorted && remSorted
	for v := oldN; v < n; v++ {
		mark[v>>6] |= 1 << (uint32(v) & 63)
	}

	// The touched vertices in increasing order, straight off the marks,
	// which this pass leaves clear.
	touched := d.touched[:0]
	for wi, w := range mark {
		if w == 0 {
			continue
		}
		mark[wi] = 0
		for w != 0 {
			touched = append(touched, int32(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	d.touched = touched

	// Group the directed entries by touched vertex: touched vertex i's runs
	// are addList[addOff[i]:addOff[i+1]] and remList[remOff[i]:remOff[i+1]].
	// The counts turn into fill cursors and are zeroed after the fill, so
	// from here on the per-vertex scratch is clean whatever happens.
	nt := len(touched)
	d.addOff = zeroed(d.addOff, nt+1)
	d.remOff = zeroed(d.remOff, nt+1)
	addOff, remOff := d.addOff, d.remOff
	a, r := int32(0), int32(0)
	for i, v := range touched {
		addOff[i], remOff[i] = a, r
		a, addCnt[v] = a+addCnt[v], a
		r, remCnt[v] = r+remCnt[v], r
	}
	addOff[nt], remOff[nt] = a, r
	fill := func(cnt, list []int32, u, v int32) {
		list[cnt[u]] = v
		cnt[u]++
		list[cnt[v]] = u
		cnt[v]++
	}
	for key, s := range d.pend {
		if s > 0 {
			fill(addCnt, d.addList, key[0], key[1])
		} else {
			fill(remCnt, d.remList, key[0], key[1])
		}
	}
	for _, e := range d.batchAdd {
		fill(addCnt, d.addList, e[0], e[1])
	}
	for _, e := range d.batchRem {
		fill(remCnt, d.remList, e[0], e[1])
	}
	for _, v := range touched {
		addCnt[v], remCnt[v] = 0, 0
	}
	// Sort each run and reject in-batch duplicates here, while the runs are
	// hot — keeping the duplicate checks out of the merge's inner loops
	// below. A strictly lex-increasing normalized batch yields runs that
	// are sorted and duplicate-free by construction — a vertex's
	// reverse-direction entries (filled while processing smaller first
	// endpoints) all precede its forward-direction entries, and each group
	// arrives ascending — so it skips this step.
	for i := 0; i < nt && !sorted; i++ {
		v := touched[i]
		if err := sortRun(d.addList[addOff[i]:addOff[i+1]], v, "insertion"); err != nil {
			return nil, err
		}
		if err := sortRun(d.remList[remOff[i]:remOff[i+1]], v, "removal"); err != nil {
			return nil, err
		}
	}

	// Degrees: a touched vertex's new degree is its old one plus its net
	// delta. ∆ is the larger of the touched vertices' new degrees and the
	// old ∆ — unless a vertex at the old ∆ lost an edge and no touched
	// vertex reached it, in which case the old ∆ may have gone and the
	// degrees are recounted. The pass also counts the new snapshot's
	// adjacency entries and the blocks the touched vertices fall in.
	oldMax := int32(d.g.MaxDegree())
	maxDeg, lostMax := int32(0), false
	entries := 2 * d.g.M()
	blocks, lastBlock := 0, -1
	for i, tv := range touched {
		v := int(tv)
		var oldDeg int32
		if v < oldN {
			oldDeg = int32(d.g.Degree(v))
		}
		dDeg := (addOff[i+1] - addOff[i]) - (remOff[i+1] - remOff[i])
		newDeg := oldDeg + dDeg
		if newDeg < 0 {
			// More removals than v has edges: at least one is absent.
			return nil, fmt.Errorf("dyngraph: Commit: removal of absent edge at vertex %d", v)
		}
		maxDeg = max(maxDeg, newDeg)
		if oldDeg == oldMax && newDeg < oldMax {
			lostMax = true
		}
		entries += int(dDeg)
		if b := v / graph.BlockSize; b != lastBlock {
			blocks, lastBlock = blocks+1, b
		}
	}
	if maxDeg < oldMax {
		if lostMax {
			for v, i := 0, 0; v < oldN; v++ {
				if i < nt && int(touched[i]) == v {
					i++ // its new degree is in maxDeg already
					continue
				}
				maxDeg = max(maxDeg, int32(d.g.Degree(v)))
			}
		} else {
			maxDeg = oldMax
		}
	}

	// The merge only moves entries of an already-valid graph plus
	// range-checked insertions, and maxDeg fell out of the degree pass, so
	// the checked constructor would re-derive what is true by construction
	// (the differential harness re-proves it against graph.New every run).
	// A batch that keeps n writes pages for the blocks it touched over the
	// parent's page table, unless that would leave more than
	// 1/compactShare of the blocks paged or the parent is a mapping: then,
	// as for a batch that changes n, the merge compacts everything into a
	// fresh flat snapshot. An epoch that kept the vertex count records its
	// lineage, so a solver holding the previous snapshot can replay its LP
	// stage over the touched frontier; touched is copied because d.touched
	// is reused.
	var next *graph.Graph
	switch {
	case n == oldN && !d.g.Mapped() && (d.g.PagedBlocks()+blocks)*compactShare <= d.g.Blocks():
		succ := d.g.Successor()
		if err := d.pagedMerge(succ); err != nil {
			return nil, err
		}
		next = succ.Graph(int(maxDeg), append([]int32(nil), touched...))
	default:
		newOff, newAdj, err := d.flatMerge(n, entries, 2*nRem)
		if err != nil {
			return nil, err
		}
		if n == oldN {
			next = graph.FromCSRDerived(d.g, newOff, newAdj, int(maxDeg), append([]int32(nil), touched...))
		} else {
			next = graph.FromCSRUnchecked(newOff, newAdj, int(maxDeg))
		}
	}

	d.applyWeights(n)

	delta := &Delta{
		Prev:    d.g,
		Next:    next,
		Touched: touched,
		Epoch:   d.epoch + 1,
		Grew:    n > oldN,
	}
	d.g = next
	d.epoch++
	d.pend = nil
	d.resetBatch()
	d.pendW = nil
	return delta, nil
}

// compactShare bounds the paged blocks of a snapshot to 1/compactShare of
// all blocks; a commit that would pass it compacts into a flat snapshot.
// The bound trades the O(n+m) compaction, amortized over the epochs
// between two, against reads through separately allocated pages. One half
// was chosen on a 2-vCPU Intel Xeon (go1.24.0): serve-churn's 32 toggled
// pairs touch at most 64 of udg-10k's 157 blocks, so at one half it never
// compacts after its first commit, where one quarter would compact every
// few epochs; and the rounding fix-up with half of the blocks paged ran
// within 4 % of the flat graph on udg-10k (BenchmarkRoundFixupPaged
// against BenchmarkRoundFixup), and 9–16 % slower on udg-100k, against
// 6–8 % at one quarter and 2–4 % at one eighth.
const compactShare = 2

// flatMerge builds the new snapshot's flat CSR: n vertices, entries
// adjacency entries. newAdj carries slack spare entries (two per removal)
// so that a merge overrunning on an absent removal writes into them before
// its check fires; the returned adjacency has the exact length.
func (d *Dynamic) flatMerge(n, entries, slack int) (newOff, newAdj []int32, err error) {
	touched := d.touched
	newOff = make([]int32, n+1)
	newAdj = make([]int32, entries+slack)
	ti := 0
	for b := range d.g.Blocks() {
		sOff, sAdj := d.g.Block(b)
		lo := b * graph.BlockSize
		tj := ti
		for tj < len(touched) && int(touched[tj]) < lo+len(sOff)-1 {
			tj++
		}
		if err := d.mergeBlock(newOff[lo:lo+len(sOff)], newAdj, sOff, sAdj, lo, ti, tj); err != nil {
			return nil, nil, err
		}
		ti = tj
	}
	// The brand-new vertices, all touched, have no old lists.
	for ; ti < len(touched); ti++ {
		v := touched[ti]
		if newOff[v+1], err = d.mergeVertex(newAdj, newOff[v], nil, ti); err != nil {
			return nil, nil, err
		}
	}
	if int(newOff[n]) != entries {
		return nil, nil, fmt.Errorf("dyngraph: Commit: internal merge mismatch (%d of %d entries)", newOff[n], entries)
	}
	return newOff, newAdj[:entries], nil
}

// pagedMerge gives every block holding a touched vertex a new page in
// succ, the parent's block with the touched vertices' deltas merged in.
func (d *Dynamic) pagedMerge(succ graph.Successor) error {
	touched, addOff, remOff := d.touched, d.addOff, d.remOff
	for ti := 0; ti < len(touched); {
		b := int(touched[ti]) / graph.BlockSize
		lo := b * graph.BlockSize
		sOff, sAdj := d.g.Block(b)
		size := sOff[len(sOff)-1] - sOff[0]
		tj := ti
		for ; tj < len(touched) && int(touched[tj]) < lo+graph.BlockSize; tj++ {
			size += (addOff[tj+1] - addOff[tj]) - (remOff[tj+1] - remOff[tj])
		}
		off, adj := succ.Page(b, int(size), int(remOff[tj]-remOff[ti]))
		if err := d.mergeBlock(off, adj, sOff, sAdj, lo, ti, tj); err != nil {
			return err
		}
		if off[len(off)-1] != size {
			return fmt.Errorf("dyngraph: Commit: internal merge mismatch (%d of %d entries in block %d)", off[len(off)-1], size, b)
		}
		ti = tj
	}
	return nil
}

// mergeBlock writes one block of the new snapshot: the parent's block
// (sOff, sAdj; lo is its first vertex) with the delta runs of its touched
// vertices, touched[ti:tj], merged in. It writes the block's end offsets
// into dOff[1:] and its lists into dAdj from dOff[0] on. The untouched
// span before each touched vertex is one bulk copy with shifted offsets
// (old and new lists are identical and contiguous there); the touched
// vertex itself is merged by mergeVertex.
func (d *Dynamic) mergeBlock(dOff, dAdj, sOff, sAdj []int32, lo, ti, tj int) error {
	pos, from := dOff[0], 0
	for i := ti; i < tj; i++ {
		l := int(d.touched[i]) - lo
		if from < l {
			shifted(dOff[from+1:l+1], sOff[from+1:l+1], pos-sOff[from])
			pos += int32(copy(dAdj[pos:], sAdj[sOff[from]:sOff[l]]))
		}
		end, err := d.mergeVertex(dAdj, pos, sAdj[sOff[l]:sOff[l+1]], i)
		if err != nil {
			return err
		}
		dOff[l+1], pos, from = end, end, l+1
	}
	if k := len(sOff) - 1; from < k {
		shifted(dOff[from+1:], sOff[from+1:], pos-sOff[from])
		copy(dAdj[pos:], sAdj[sOff[from]:sOff[k]])
	}
	return nil
}

// mergeVertex writes touched vertex touched[i]'s new list into dst from
// pos on — its old list minus its removal run plus its insertion run — and
// returns the list's end. The runs were pre-validated, so the loops carry
// no duplicate checks; an absent removal surfaces as a budget mismatch or
// an unconsumed removal, after the filter has overrun the list's end by at
// most the removal run's length, which dst must have room for.
func (d *Dynamic) mergeVertex(dst []int32, pos int32, old []int32, i int) (int32, error) {
	v := d.touched[i]
	adds := d.addList[d.addOff[i]:d.addOff[i+1]]
	rems := d.remList[d.remOff[i]:d.remOff[i+1]]
	base, end := pos, pos+int32(len(old)+len(adds)-len(rems))
	// Pass 1: old minus removals — a straight copy when there are none, a
	// two-branch filter otherwise.
	if len(rems) == 0 {
		pos += int32(copy(dst[base:], old))
	} else {
		ri := 0
		for _, w := range old {
			if ri < len(rems) && rems[ri] == w {
				ri++
				continue
			}
			dst[pos] = w
			pos++
		}
		if ri < len(rems) || pos+int32(len(adds)) != end {
			return 0, absentRemoval(v, rems, old)
		}
	}
	// Pass 2: merge the insertions in backwards, shifting only the tail of
	// the filtered run that exceeds them.
	for j, i, p := len(adds)-1, pos-1, end-1; j >= 0; p-- {
		aj := adds[j]
		if i >= base && dst[i] > aj {
			dst[p] = dst[i]
			i--
		} else {
			if i >= base && dst[i] == aj {
				return 0, fmt.Errorf("dyngraph: Commit: duplicate insertion of edge (%d,%d)", v, aj)
			}
			dst[p] = aj
			j--
		}
	}
	return end, nil
}

// absentRemoval names the removal of v's run that is absent from old, for
// the error message (duplicates were already rejected, so containment is
// enough).
func absentRemoval(v int32, rems, old []int32) error {
	u := rems[len(rems)-1]
	for _, r := range rems {
		if !slices.Contains(old, r) {
			u = r
			break
		}
	}
	return fmt.Errorf("dyngraph: Commit: removal of absent edge (%d,%d)", v, u)
}

// applyWeights folds the pending weight updates into the cost vector:
// clone-on-write so earlier snapshots' cost vectors (already handed to
// callers) are never mutated, and extended to the new n.
func (d *Dynamic) applyWeights(n int) {
	if d.pendW == nil && (d.costs == nil || len(d.costs) >= n) {
		return
	}
	costs := make([]float64, n)
	copy(costs, d.costs)
	for v := len(d.costs); v < n; v++ {
		costs[v] = 1
	}
	if d.costs == nil {
		for v := range costs {
			costs[v] = 1
		}
	}
	for v, w := range d.pendW {
		costs[v] = w
	}
	d.costs = costs
}

// countEdge counts the directed entries of edge {u,v} in cnt and marks
// both endpoints touched.
func countEdge(cnt []int32, mark []uint64, u, v int32) {
	cnt[u]++
	cnt[v]++
	mark[u>>6] |= 1 << (uint32(u) & 63)
	mark[v>>6] |= 1 << (uint32(v) & 63)
}

// shifted sets dst to src moved by the running offset shift.
func shifted(dst, src []int32, shift int32) {
	for j := range dst {
		dst[j] = src[j] + shift
	}
}

// clearMarks undoes a count pass that stopped at an invalid batch entry:
// it zeroes the counts of every marked vertex and the marks themselves.
func (d *Dynamic) clearMarks() {
	for wi, w := range d.mark {
		if w == 0 {
			continue
		}
		d.mark[wi] = 0
		for w != 0 {
			v := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			d.addCnt[v], d.remCnt[v] = 0, 0
		}
	}
}

// sortRun sorts vertex v's delta run and rejects an in-batch duplicate.
func sortRun(run []int32, v int32, what string) error {
	insertionSort(run)
	for i := 1; i < len(run); i++ {
		if run[i] == run[i-1] {
			return fmt.Errorf("dyngraph: Commit: duplicate %s of edge (%d,%d)", what, v, run[i])
		}
	}
	return nil
}

// insertionSort sorts a small int32 run in place; the per-vertex delta
// lists it serves are almost always tiny, where sort.Slice's closure and
// reflection overhead would dominate the commit.
func insertionSort(a []int32) {
	if len(a) > 32 {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		return
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}
