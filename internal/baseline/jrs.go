package baseline

import (
	"fmt"
	"sort"

	"kwmds/internal/graph"
	"kwmds/internal/sim"
)

// JRS implements the "local randomized greedy" (LRG) distributed dominating
// set algorithm of Jia, Rajaraman and Suel (PODC 2001), the paper's
// reference point [11]: an O(log n·log ∆)-round algorithm with an O(log ∆)
// expected approximation ratio.
//
// One LRG phase, as published:
//
//  1. every uncovered-relevant node computes its span d(v) (uncovered
//     vertices in N[v]) and rounds it up to the next power of two, d̂(v);
//  2. v becomes a *candidate* when d̂(v) is maximal within its distance-2
//     neighborhood (computed with two max-flood rounds);
//  3. every uncovered vertex u announces its support c(u) = number of
//     candidates in N[u]; each candidate v selects itself with probability
//     1/med(v), where med(v) is the median support among the uncovered
//     members of N[v];
//  4. selected candidates join the dominating set; coverage updates.
//
// Where the published description leaves tie-breaking open we use vertex
// ids. A node halts when its whole closed neighborhood is covered. The
// round and message costs are measured by the simulator.
func JRS(g *graph.Graph, seed int64, opts ...sim.Option) (*Result, error) {
	n := g.N()
	inDS := make([]bool, n)
	opts = append(opts, sim.WithSeed(seed))
	engine := sim.New(g, opts...)
	st, err := engine.RunMachine(func(nd *sim.Node) sim.StepFunc {
		const (
			phStart    = iota // round 0: the first phase's span
			phMax1            // inbox: neighbor d̂ values
			phMax2            // inbox: first-flood maxima
			phCands           // inbox: candidate announcements
			phSupports        // inbox: support values
			phSelected        // inbox: selection announcements
			phCoverage        // inbox: coverage bits
		)
		phase := phStart
		covered := false             // this node is dominated
		nbrCovered := map[int]bool{} // coverage state of each neighbor
		for _, u := range nd.Neighbors() {
			nbrCovered[int(u)] = false
		}
		member := false
		span, dhat, max1, support := 0, 0, 0, 0
		candidate := false
		return func(nd *sim.Node, inbox []sim.Message) bool {
			switch phase {
			case phCoverage:
				for _, m := range inbox {
					nbrCovered[m.From] = bool(m.Data.(sim.Bit))
				}
				fallthrough // the next LRG phase starts in this step
			case phStart:
				// Halt once the entire closed neighborhood is covered: this
				// node can no longer be a useful candidate and no neighbor
				// needs its support value.
				done := covered
				for _, c := range nbrCovered {
					if !c {
						done = false
					}
				}
				if done {
					return false
				}
				// Step 1: span and its power-of-two rounding.
				span = 0
				if !covered {
					span++
				}
				for _, c := range nbrCovered {
					if !c {
						span++
					}
				}
				dhat = ceilPow2(span)
				// Step 2: two max-flood rounds identify distance-2 maxima.
				nd.Broadcast(sim.Uint(uint64(dhat)))
				phase = phMax1
			case phMax1:
				max1 = dhat
				for _, m := range inbox {
					if v := int(m.Data.(sim.Uint)); v > max1 {
						max1 = v
					}
				}
				nd.Broadcast(sim.Uint(uint64(max1)))
				phase = phMax2
			case phMax2:
				max2 := max1
				for _, m := range inbox {
					if v := int(m.Data.(sim.Uint)); v > max2 {
						max2 = v
					}
				}
				candidate = span > 0 && dhat >= max2
				// Step 3a: candidates announce themselves.
				if candidate {
					nd.Broadcast(sim.Flag{})
				}
				phase = phCands
			case phCands:
				support = 0 // c(v): candidates in N[v], counted by uncovered v
				if !covered {
					support = len(inbox)
					if candidate {
						support++
					}
				}
				// Step 3b: uncovered nodes announce their support.
				nd.Broadcast(sim.Uint(uint64(support)))
				phase = phSupports
			case phSupports:
				if candidate {
					// med(v): median support among uncovered members of N[v].
					var sup []int
					if !covered && support > 0 {
						sup = append(sup, support)
					}
					for _, m := range inbox {
						if s := int(m.Data.(sim.Uint)); s > 0 {
							sup = append(sup, s)
						}
					}
					med := 1.0
					if len(sup) > 0 {
						sort.Ints(sup)
						med = float64(sup[len(sup)/2])
					}
					if nd.Rand().Float64() < 1/med {
						member = true
						inDS[nd.ID()] = true
					}
				}
				// Step 4: selected nodes announce; coverage updates; everyone
				// shares fresh coverage bits so spans stay consistent.
				if member {
					nd.Broadcast(sim.Flag{})
				}
				phase = phSelected
			case phSelected:
				if member || len(inbox) > 0 {
					covered = true
				}
				nd.Broadcast(sim.Bit(covered))
				phase = phCoverage
			}
			return true
		}
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: jrs: %w", err)
	}
	size := graph.SetSize(inDS)
	return &Result{InDS: inDS, Size: size, Rounds: st.Rounds, Messages: st.Messages, Bits: st.Bits}, nil
}

// ceilPow2 rounds v up to the next power of two (0 stays 0).
func ceilPow2(v int) int {
	if v <= 0 {
		return 0
	}
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
