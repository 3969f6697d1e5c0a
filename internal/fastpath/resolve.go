package fastpath

import (
	"fmt"
	"math/bits"

	"kwmds/internal/core"
	"kwmds/internal/dyngraph"
)

// repairFallbackNum/Den set the churn threshold of Resolve: the static
// δ⁽¹⁾/δ⁽²⁾ tables are repaired incrementally only while the estimated
// repair frontier — Σ over touched vertices of (deg+1), scaled by the
// average closed-neighborhood size for the distance-2 expansion — stays
// below (n+m)·Num/Den, i.e. below the cost of the two dense passes it
// replaces. Above it Resolve recomputes the tables densely. The cutover is
// pure heuristics, never semantics: both paths produce identical tables,
// so the solve output is bit-identical either way.
const (
	repairFallbackNum = 1
	repairFallbackDen = 4
)

// Resolve runs the full pipeline on d.Next, treating it as an epoch-batched
// mutation of the solver's previous graph. When the solver's cached state
// belongs to d.Prev and the churn is below the fallback threshold, the
// static δ⁽¹⁾/δ⁽²⁾ tables are repaired from the touched neighborhoods
// (distance ≤ 2 from d.Touched) instead of recomputed; otherwise Resolve
// degrades to exactly a cold Solve on d.Next. The output is bit-identical
// to a cold solve in every case — the differential churn harness and
// FuzzMutationSequence enforce this — and the result slices are read-only
// views of the solver's storage exactly as Solve's are.
func (s *Solver) Resolve(d *dyngraph.Delta, opt Options) (Result, error) {
	if d == nil || d.Next == nil {
		return Result{}, fmt.Errorf("fastpath: Resolve: nil delta")
	}
	if err := core.ValidateK(opt.K); err != nil {
		return Result{}, err
	}
	repair := s.canRepair(d)
	s.lastRepaired = repair
	if err := s.prepare(d.Next, opt); err != nil {
		return Result{}, err
	}
	defer s.stopWorkers()
	if repair {
		s.repairD2(d.Touched)
		s.d2done = true
	}
	s.lp(opt)
	res := s.roundPhases(s.x[:s.n], opt)
	res.X = s.x[:s.n]
	return res, nil
}

// LastResolveRepaired reports whether the most recent Resolve took the
// incremental δ⁽¹⁾/δ⁽²⁾ repair path (false: it fell back to a full solve).
// Observability only — both paths produce identical output; the churn
// benchmark uses it to report how often the threshold tripped.
func (s *Solver) LastResolveRepaired() bool { return s.lastRepaired }

// canRepair decides, before prepare clobbers the previous-graph bookmarks,
// whether the incremental δ⁽¹⁾/δ⁽²⁾ repair is sound and worthwhile: the
// solver's cached tables must belong to d.Prev (the graph key prepare
// uses for same-graph caching), the vertex count must
// not have changed (growth reallocates the table buffers), and the
// estimated repair cost must beat the dense recompute.
func (s *Solver) canRepair(d *dyngraph.Delta) bool {
	if !s.d2done || s.g != d.Prev || d.Grew || d.Prev == nil ||
		d.Prev.N() != d.Next.N() || s.n != d.Next.N() {
		return false
	}
	_, prevAdj := d.Prev.CSR()
	off, _ := d.Next.CSR()
	n, m2 := d.Next.N(), len(prevAdj)
	if n == 0 {
		return false
	}
	// Repair visits touched ∪ N(touched) for δ⁽¹⁾ and one more ring for
	// δ⁽²⁾; estimate both rings by scaling the touched closed-neighborhood
	// mass with the average closed-neighborhood size.
	frontier := 0
	for _, v := range d.Touched {
		frontier += int(off[v+1]-off[v]) + 1
	}
	avgN1 := (n + m2) / n // ≥ 1
	return frontier*(1+avgN1)*repairFallbackDen < (n+m2)*repairFallbackNum
}

// repairD2 patches the cached δ⁽¹⁾/δ⁽²⁾ tables after an epoch whose
// adjacency changed only at the touched vertices. δ⁽¹⁾(w) = max degree over
// N[w] can change only for w within distance 1 of a touched vertex (a
// touched vertex's own list changed; an untouched w keeps its list, and
// only the degrees of touched neighbors moved). δ⁽²⁾(w) = max δ⁽¹⁾ over
// N[w] can then change only one ring further out. Both sets are marked
// into the scratch bitsets (clear at this point, freshly reset by prepare)
// and recomputed exactly as the dense phases would — integer maxima over
// identical inputs, hence bit-identical tables. The repair runs serially:
// by the fallback threshold's construction it touches a small fraction of
// the graph, below the dispatch overhead of the phase pool.
func (s *Solver) repairD2(touched []int32) {
	ring1 := s.dirty.Words()
	ring2 := s.flipped.Words()
	for _, v := range touched {
		s.markNbhdSerial(ring1, v)
	}
	off, adj, d1, d2 := s.off, s.adj, s.d1, s.d2
	for wi, wd := range ring1 {
		for wd != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(wd))
			wd &= wd - 1
			m1 := off[v+1] - off[v]
			for _, u := range adj[off[v]:off[v+1]] {
				if deg := off[u+1] - off[u]; deg > m1 {
					m1 = deg
				}
			}
			d1[v] = m1
			s.markNbhdSerial(ring2, v)
		}
	}
	for wi, wd := range ring2 {
		ring2[wi] = 0
		for wd != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(wd))
			wd &= wd - 1
			m2 := d1[v]
			for _, u := range adj[off[v]:off[v+1]] {
				if d1[u] > m2 {
					m2 = d1[u]
				}
			}
			d2[v] = m2
		}
	}
	for wi := range ring1 {
		ring1[wi] = 0
	}
}

// markNbhdSerial sets the bits of N[u] without the atomic path of markNbhd
// (the repair is single-goroutine by construction).
func (s *Solver) markNbhdSerial(words []uint64, u int32) {
	words[u>>6] |= 1 << (uint32(u) & 63)
	for _, nb := range s.adj[s.off[u]:s.off[u+1]] {
		words[nb>>6] |= 1 << (uint32(nb) & 63)
	}
}
