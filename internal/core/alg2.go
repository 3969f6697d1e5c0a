package core

import (
	"fmt"
	"math/bits"

	"kwmds/internal/graph"
	"kwmds/internal/sim"
)

// xMsg carries a fractional value whose compact wire encoding is its
// discrete index (for Algorithm 2 the exponent m with x = (∆+1)^{-m/k}; for
// Algorithm 3 the pair (a⁽¹⁾, m)). The width is fixed when the value is
// assigned.
type xMsg struct {
	v float64
	w int
}

// Bits returns the encoded width recorded at assignment time.
func (p xMsg) Bits() int { return p.w }

// FractionalKnownDelta runs Algorithm 2 on the message-passing simulator:
// every node knows ∆ and k, and computes its component of a feasible
// LP_MDS solution in exactly 2k² communication rounds (Theorem 4). The
// result's X is bit-identical to ReferenceKnownDelta's.
func FractionalKnownDelta(g *graph.Graph, k int, opts ...sim.Option) (*Result, error) {
	if err := validateK(k); err != nil {
		return nil, err
	}
	pw := powTable(float64(g.MaxDegree()+1), k)
	res, err := fractionalThreshold(g, k, pw, pw, nil, 0, opts)
	if err != nil {
		return nil, fmt.Errorf("core: algorithm 2: %w", err)
	}
	return res, nil
}

// isActive is the activity test of Algorithm 2 and the weighted variant:
// δ̃ ≥ thr, or with costs the cost-scaled (c_max/c_v)·δ̃ ≥ thr.
func isActive(dtil int, thr float64, costs []float64, cmax float64, v int) bool {
	if costs == nil {
		return float64(dtil) >= thr
	}
	return cmax/costs[v]*float64(dtil) >= thr
}

// fractionalThreshold is the step machine of Algorithm 2 and the weighted
// variant (costs nil for Algorithm 2): in outer iteration ℓ and inner
// iteration m, a node passing the activity test against thr[ℓ] raises x to
// 1/pw[m]. It runs in exactly 2k² rounds.
func fractionalThreshold(g *graph.Graph, k int, thr, pw, costs []float64, cmax float64, opts []sim.Option) (*Result, error) {
	// x-values are indices into the k-entry power table: 1 presence bit
	// plus ⌈log₂(k+1)⌉ index bits.
	xWidth := 1 + bits.Len(uint(k))

	x := make([]float64, g.N())
	engine := sim.New(g, opts...)
	// The program is a per-node step machine (two rounds per inner
	// iteration). The color exchange runs at the head of each inner
	// iteration so the activity test sees a fresh δ̃, matching
	// the references (see the round-schedule note in referenceThreshold).
	st, err := engine.RunMachine(func(nd *sim.Node) sim.StepFunc {
		const (
			phStart  = iota // round 0: announce the initial color
			phColors        // inbox: neighbor colors
			phX             // inbox: neighbor x-values
		)
		phase := phStart
		l, m := k-1, k-1
		lthr := thr[l] * (1 - thrSlack)
		xi := 0.0
		xw := 1 // zero value: presence bit only
		gray := false
		return func(nd *sim.Node, inbox []sim.Message) bool {
			switch phase {
			case phStart:
				nd.Broadcast(sim.Bit(gray))
				phase = phColors
			case phColors:
				// Lines 9-10 (reordered): recount the white closed
				// neighborhood from the color exchange.
				dtil := 0
				if !gray {
					dtil++
				}
				for _, msg := range inbox {
					if !bool(msg.Data.(sim.Bit)) {
						dtil++
					}
				}
				// Lines 6-8: activity test on the fresh dynamic degree.
				if isActive(dtil, lthr, costs, cmax, nd.ID()) {
					if xval := 1 / pw[m]; xval > xi {
						xi = xval
						xw = xWidth
					}
				}
				// Line 11: x exchange.
				nd.Broadcast(xMsg{v: xi, w: xw})
				phase = phX
			case phX:
				// Line 12: recolor when covered.
				sum := xi
				for _, msg := range inbox {
					sum += msg.Data.(xMsg).v
				}
				if sum >= 1-covTol {
					gray = true
				}
				m--
				if m < 0 {
					m = k - 1
					l--
					if l < 0 {
						x[nd.ID()] = xi
						return false
					}
					lthr = thr[l] * (1 - thrSlack)
				}
				nd.Broadcast(sim.Bit(gray))
				phase = phColors
			}
			return true
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		X:              x,
		Rounds:         st.Rounds,
		Messages:       st.Messages,
		Bits:           st.Bits,
		MaxMsgsPerNode: st.MaxMsgs,
	}, nil
}
