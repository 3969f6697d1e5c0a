package baseline

import (
	"fmt"
	"math/bits"
	"sort"

	"kwmds/internal/graph"
	"kwmds/internal/sim"
)

// nbrList is the payload carrying a node's neighbor ids — the information
// Wu–Li's marking rule exchanges in its first round. Its wire width is the
// sum of the ids' binary lengths (Wu–Li messages are Θ(∆ log n), unlike the
// O(log ∆) messages of the paper's algorithm; the experiment tables make
// this cost visible).
type nbrList []int32

// Bits sums the per-id widths.
func (l nbrList) Bits() int {
	total := 0
	for _, id := range l {
		w := bits.Len32(uint32(id))
		if w == 0 {
			w = 1
		}
		total += w
	}
	if total == 0 {
		return 1
	}
	return total
}

// WuLiResult extends Result with the marking-phase breakdown.
type WuLiResult struct {
	Result
	// Marked is the set after marking + pruning, before the coverage
	// fallback; on connected non-complete graphs it is Wu–Li's connected
	// dominating set.
	Marked []bool
	// FallbackJoins counts vertices added by the two fallback rounds
	// (min-id election and self-cover) that guarantee domination on
	// graphs where the marking rule yields nothing, e.g. cliques.
	FallbackJoins int
}

// WuLi runs the Wu–Li marking algorithm with pruning rules 1 and 2
// (distributed, constant rounds):
//
//	mark v  ⇔  v has two neighbors that are not adjacent to each other;
//	unmark v if a marked neighbor u with higher id has N[v] ⊆ N[u]  (rule 1);
//	unmark v if two adjacent marked neighbors u,w with higher ids cover
//	N(v) ⊆ N(u) ∪ N(w)                                              (rule 2).
//
// The marked set is Wu–Li's connected dominating set on connected graphs
// where at least one vertex is marked. Because the pure rule marks nothing
// on complete graphs (and isolated vertices), two constant-round fallback
// steps ensure the returned set always dominates: first an uncovered
// vertex joins if it has the minimum id among its uncovered closed
// neighborhood, then any still-uncovered vertex joins itself.
func WuLi(g *graph.Graph, opts ...sim.Option) (*WuLiResult, error) {
	n := g.N()
	marked := make([]bool, n)
	inDS := make([]bool, n)
	engine := sim.New(g, opts...)
	st, err := engine.RunMachine(func(nd *sim.Node) sim.StepFunc {
		const (
			phStart    = iota // round 0: send the neighbor list
			phLists           // inbox: neighbor lists
			phMarks           // inbox: marks
			phMembers         // inbox: final marks
			phFlags           // inbox: uncovered flags
			phFallback        // inbox: fallback-round memberships
		)
		phase := phStart
		id := nd.ID()
		nbrs := nd.Neighbors()
		var nbrSets map[int][]int32
		adjacent := func(a, b int32) bool {
			la := nbrSets[int(a)]
			i := sort.Search(len(la), func(i int) bool { return la[i] >= b })
			return i < len(la) && la[i] == b
		}
		mark, member, uncovered := false, false, false
		return func(nd *sim.Node, inbox []sim.Message) bool {
			switch phase {
			case phStart:
				// Round 1: exchange neighbor lists.
				nd.Broadcast(nbrList(nbrs))
				phase = phLists
			case phLists:
				nbrSets = make(map[int][]int32, len(nbrs))
				for _, m := range inbox {
					nbrSets[m.From] = m.Data.(nbrList)
				}
				// Marking rule.
			markLoop:
				for i := 0; i < len(nbrs); i++ {
					for j := i + 1; j < len(nbrs); j++ {
						if !adjacent(nbrs[i], nbrs[j]) {
							mark = true
							break markLoop
						}
					}
				}
				// Round 2: exchange marks.
				nd.Broadcast(sim.Bit(mark))
				phase = phMarks
			case phMarks:
				markedNbrs := map[int]bool{}
				for _, m := range inbox {
					markedNbrs[m.From] = bool(m.Data.(sim.Bit))
				}
				// Pruning rule 1: a single higher-id marked neighbor covers N[v].
				if mark {
					for _, u := range nbrs {
						if !markedNbrs[int(u)] || int(u) < id {
							continue
						}
						if coversAll(nbrs, id, nbrSets[int(u)], int(u), nil, -1) {
							mark = false
							break
						}
					}
				}
				// Pruning rule 2: two adjacent higher-id marked neighbors cover N(v).
				if mark {
				rule2:
					for i := 0; i < len(nbrs); i++ {
						u := nbrs[i]
						if !markedNbrs[int(u)] || int(u) < id {
							continue
						}
						for j := i + 1; j < len(nbrs); j++ {
							w := nbrs[j]
							if !markedNbrs[int(w)] || int(w) < id || !adjacent(u, w) {
								continue
							}
							if coversAll(nbrs, id, nbrSets[int(u)], int(u), nbrSets[int(w)], int(w)) {
								mark = false
								break rule2
							}
						}
					}
				}
				if mark {
					marked[id] = true
				}
				member = mark
				// Round 3: exchange final marks; compute coverage.
				nd.Broadcast(sim.Bit(member))
				phase = phMembers
			case phMembers:
				coveredBy := 0
				for _, m := range inbox {
					if bool(m.Data.(sim.Bit)) {
						coveredBy++
					}
				}
				uncovered = !member && coveredBy == 0
				// Fallback round A: uncovered nodes elect the min id among the
				// uncovered members of their closed neighborhoods.
				if uncovered {
					nd.Broadcast(sim.Flag{})
				}
				phase = phFlags
			case phFlags:
				if uncovered {
					minID := id
					for _, m := range inbox {
						if m.From < minID {
							minID = m.From
						}
					}
					if minID == id {
						member = true
					}
				}
				// Fallback round B: announce; any node still uncovered joins itself.
				nd.Broadcast(sim.Bit(member))
				phase = phFallback
			case phFallback:
				stillCovered := member
				for _, m := range inbox {
					if bool(m.Data.(sim.Bit)) {
						stillCovered = true
					}
				}
				if !stillCovered {
					member = true
				}
				inDS[id] = member
				return false
			}
			return true
		}
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: wu-li: %w", err)
	}
	res := &WuLiResult{
		Result: Result{InDS: inDS, Size: graph.SetSize(inDS),
			Rounds: st.Rounds, Messages: st.Messages, Bits: st.Bits},
		Marked: marked,
	}
	for v := 0; v < n; v++ {
		if inDS[v] && !marked[v] {
			res.FallbackJoins++
		}
	}
	return res, nil
}

// coversAll reports whether every neighbor of v (the caller, id vid, with
// neighbor list vNbrs) other than u and w themselves lies in N[u] ∪ N[w].
// Pass wNbrs = nil, wid = -1 for the single-neighbor variant, which also
// requires v itself to be adjacent to u (closed-neighborhood containment).
func coversAll(vNbrs []int32, vid int, uNbrs []int32, uid int, wNbrs []int32, wid int) bool {
	inList := func(list []int32, x int32) bool {
		i := sort.Search(len(list), func(i int) bool { return list[i] >= x })
		return i < len(list) && list[i] == x
	}
	for _, t := range vNbrs {
		if int(t) == uid || int(t) == wid {
			continue
		}
		if inList(uNbrs, t) {
			continue
		}
		if wNbrs != nil && inList(wNbrs, t) {
			continue
		}
		return false
	}
	return true
}
