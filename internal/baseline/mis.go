package baseline

import (
	"fmt"

	"kwmds/internal/graph"
	"kwmds/internal/sim"
)

// LubyMIS computes a maximal independent set with Luby's randomized
// algorithm (O(log n) phases with high probability, 3 rounds per phase).
// Every MIS is a dominating set, which makes this a classical
// O(log n)-round baseline with no non-trivial approximation guarantee.
//
// Phase structure: every still-undecided node draws a random 64-bit value
// and broadcasts it; a node whose value is a strict local minimum among its
// undecided neighbors (ties broken by id) joins the MIS and announces; its
// neighbors drop out and announce in turn.
func LubyMIS(g *graph.Graph, seed int64, opts ...sim.Option) (*Result, error) {
	n := g.N()
	inMIS := make([]bool, n)
	opts = append(opts, sim.WithSeed(seed))
	engine := sim.New(g, opts...)
	st, err := engine.RunMachine(func(nd *sim.Node) sim.StepFunc {
		const (
			phStart   = iota // round 0: the first lottery
			phLottery        // inbox: lottery values
			phWinners        // inbox: winner announcements
			phExits          // inbox: exit announcements
		)
		phase := phStart
		undecided := map[int]bool{}
		for _, u := range nd.Neighbors() {
			undecided[int(u)] = true
		}
		var r uint64
		win, exit := false, false
		return func(nd *sim.Node, inbox []sim.Message) bool {
			switch phase {
			case phExits:
				if win {
					inMIS[nd.ID()] = true
				}
				if exit {
					return false
				}
				for _, m := range inbox {
					delete(undecided, m.From)
				}
				fallthrough // survivors draw the next phase's lottery now
			case phStart:
				// Exchange 1: lottery values (only live, undecided nodes run).
				r = nd.Rand().Uint64() >> 1 // keep tie handling simple
				nd.Broadcast(sim.Uint(r))
				phase = phLottery
			case phLottery:
				win = true
				for _, m := range inbox {
					if !undecided[m.From] {
						continue
					}
					rv := uint64(m.Data.(sim.Uint))
					if rv < r || (rv == r && m.From < nd.ID()) {
						win = false
					}
				}
				// Exchange 2: winners announce.
				if win {
					nd.Broadcast(sim.Flag{})
				}
				phase = phWinners
			case phWinners:
				covered := false
				for range inbox {
					covered = true // a neighbor joined the MIS
				}
				// Exchange 3: every retiring node (winner or newly covered)
				// announces its exit, so survivors stop considering it.
				exit = win || covered
				if exit {
					nd.Broadcast(sim.Flag{})
				}
				phase = phExits
			}
			return true
		}
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: luby mis: %w", err)
	}
	size := graph.SetSize(inMIS)
	return &Result{InDS: inMIS, Size: size, Rounds: st.Rounds, Messages: st.Messages, Bits: st.Bits}, nil
}
