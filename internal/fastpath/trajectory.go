package fastpath

import (
	"math"
	"math/bits"

	"kwmds/internal/bitset"
)

// never is grayAt's entry for a vertex the recorded run left white.
const never = math.MaxInt32

// event is one recorded event of a vertex, keyed by its time at. An even
// at = 2t is inner iteration t, in which the vertex was active: val is its
// a⁽¹⁾ there, and x rose to a⁽¹⁾^{-m/(m+1)} if that is larger (and
// a⁽¹⁾ ≥ 1). An odd at = 2t+1 is the outer boundary after inner iteration
// t, at which the vertex was in the support: val is its new γ⁽²⁾.
type event struct{ at, val int32 }

// trajectory is the record of one Algorithm 3 LP stage, kept per vertex so
// that the recorded state of any vertex at any iteration is a lookup over
// its own events, and a replay rewrites only the vertices whose events
// changed. Inner iterations t = 0..k²−1 run in the drivers' (ℓ, m) order;
// iterations after the white set emptied hold no events, which is what the
// stage would produce if it ran on. Nothing in the record depends on the
// worker count: the phases whose results it logs emit no list and write
// only their own word range, or run on the calling goroutine.
//
// Each vertex's events are one span of the arena ev, ascending by at. A
// rewritten span that does not grow stays where it is; a longer one moves
// to the arena's end, and the arena is compacted into spare, in vertex
// order, when a move finds it full. Between stages spare is scratch: the
// full stage logs its events there, iteration by iteration, and leaves the
// record unbuilt; the first replay builds the spans from the log (ready).
// A solver that only ever hits its memo never holds spans or the arena.
type trajectory struct {
	maxDeg int     // ∆ of the recorded graph: bounds the raise indices
	white  []int32 // white vertices left after each inner iteration
	grayAt []int32 // per vertex: the inner iteration it turned gray in, or never
	built  bool    // spans and ev hold the record, not only the log
	spans  []span  // per vertex: where its events are in ev
	ev     []event
	dead   int // arena entries no span covers
	spare  []event
	// The full stage's log: segment i is spare[logEnd[i-1]:logEnd[i]], the
	// events of time logAt[i] as {vertex, val} pairs, ascending by vertex.
	logAt  []int32
	logEnd []int
}

// span locates a vertex's events: ev[off:off+n].
type span struct{ off, n int32 }

// events returns v's events.
func (r *trajectory) events(v int32) []event {
	sp := r.spans[v]
	return r.ev[sp.off : sp.off+sp.n]
}

// find returns v's event at time at: its val, and whether there is one
// (val 0 if not).
func (r *trajectory) find(v, at int32) (int32, bool) {
	for _, e := range r.events(v) {
		if e.at == at {
			return e.val, true
		}
		if e.at > at {
			break
		}
	}
	return 0, false
}

// begin starts the full stage's record over n vertices: nothing gray, no
// event logged, and the record unbuilt.
func (r *trajectory) begin(n, k, maxDeg int) {
	r.maxDeg, r.built = maxDeg, false
	r.white = growI32(r.white, k*k)
	clear(r.white)
	r.grayAt = growI32(r.grayAt, n)
	for v := range r.grayAt {
		r.grayAt[v] = never
	}
	r.spare = r.spare[:0]
	r.logAt, r.logEnd = r.logAt[:0], r.logEnd[:0]
}

// logIter logs inner iteration t: the active set, each member with its
// a⁽¹⁾ from a1.
func (r *trajectory) logIter(t int, active *bitset.Set, a1 []int32) {
	for wi, w := range active.Words() {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			r.spare = append(r.spare, event{v, a1[v]})
		}
	}
	r.logAt = append(r.logAt, int32(2*t))
	r.logEnd = append(r.logEnd, len(r.spare))
}

// logGamma logs the outer boundary after inner iteration t: γ⁽²⁾ of every
// support vertex. Other entries of gamma2 are stale and never read again,
// since a vertex never rejoins the support.
func (r *trajectory) logGamma(t int, support *bitset.Set, gamma2 []int32) {
	for wi, w := range support.Words() {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			r.spare = append(r.spare, event{v, gamma2[v]})
		}
	}
	r.logAt = append(r.logAt, int32(2*t+1))
	r.logEnd = append(r.logEnd, len(r.spare))
}

// ready builds the spans from the full stage's log unless they are built.
func (r *trajectory) ready() {
	if !r.built {
		r.build(len(r.grayAt))
	}
}

// build turns the full stage's log into the per-vertex spans: one count
// pass, the span offsets, and one fill pass in log order, which is time
// order, so every span comes out ascending. The arena keeps room for a
// quarter of its size again of moved spans, and spare gets the same
// capacity, so replays move and compact without allocating.
func (r *trajectory) build(n int) {
	r.built = true
	log := r.spare
	if cap(r.spans) < n {
		r.spans = make([]span, n)
	}
	r.spans = r.spans[:n]
	clear(r.spans)
	for _, e := range log {
		r.spans[e.at].n++
	}
	o := int32(0)
	for v, sp := range r.spans {
		r.spans[v] = span{o, 0}
		o += sp.n
	}
	room := len(log) + len(log)/4 + 64
	if cap(r.ev) < room {
		r.ev = make([]event, room)
	}
	r.ev = r.ev[:len(log)]
	start := 0
	for i, end := range r.logEnd {
		at := r.logAt[i]
		for _, e := range log[start:end] {
			sp := &r.spans[e.at]
			r.ev[sp.off+sp.n] = event{at, e.val}
			sp.n++
		}
		start = end
	}
	if cap(log) < room {
		log = make([]event, 0, room) // the next stage logs into it
	}
	r.spare = log[:0]
	r.dead = 0
}

// place makes e the span of v (e must not alias the arena).
func (r *trajectory) place(v int32, e []event) {
	sp := &r.spans[v]
	if len(e) <= int(sp.n) {
		copy(r.ev[sp.off:], e)
		r.dead += int(sp.n) - len(e)
		sp.n = int32(len(e))
		return
	}
	if len(r.ev)+len(e) > cap(r.ev) {
		r.compact(len(e))
	}
	r.dead += int(sp.n)
	*sp = span{int32(len(r.ev)), int32(len(e))}
	r.ev = append(r.ev, e...)
}

// compact copies the live spans, in vertex order, into spare, which
// becomes the arena, with room for extra more entries. Its O(n + live)
// cost is paid once per arena's worth of moved entries.
func (r *trajectory) compact(extra int) {
	live := len(r.ev) - r.dead
	room := live + extra + live/4 + 64
	if cap(r.spare) < room {
		r.spare = make([]event, 0, room)
	}
	dst := r.spare[:0]
	for v, sp := range r.spans {
		r.spans[v].off = int32(len(dst))
		dst = append(dst, r.ev[sp.off:sp.off+sp.n]...)
	}
	r.ev, r.spare = dst, r.ev[:0]
	r.dead = 0
}

// growI32 re-slices buf to n entries, allocating only on growth.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
