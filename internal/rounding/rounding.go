// Package rounding implements Algorithm 1 of the paper (Section 4): the
// distributed randomized rounding that turns an α-approximate fractional
// dominating set x into an integral dominating set.
//
// Every node joins the set independently with probability
//
//	p_i = min{1, x_i · ln(δ⁽²⁾_i + 1)}
//
// and, after one exchange, every node whose closed neighborhood contains no
// member joins unconditionally (the fix-up of lines 5-6). Theorem 3 bounds
// the expected size by (1 + α·ln(∆+1))·|DS_OPT|.
//
// The remark after Theorem 3 is also provided: scaling by
// ln(δ⁽²⁾+1) − ln ln(δ⁽²⁾+1) instead yields an expected size of
// 2α(ln(∆+1) − ln ln(∆+1))·|DS_OPT|.
//
// As in internal/core, the algorithm exists as a distributed program on the
// simulator (Round) and as a sequential reference (Reference) producing
// identical output for the same seed.
package rounding

import (
	"fmt"
	"math"

	"kwmds/internal/graph"
	"kwmds/internal/sim"
	"kwmds/internal/stats"
)

// Variant selects the scaling function applied to x before rounding.
type Variant int8

const (
	// Ln is Algorithm 1 as listed: p = min{1, x·ln(δ⁽²⁾+1)}.
	Ln Variant = iota
	// LnMinusLnLn is the remark's variant: p = min{1, x·(ln(δ⁽²⁾+1) −
	// ln ln(δ⁽²⁾+1))}, clamped below at ln's value for tiny degrees where
	// ln ln is undefined or negative.
	LnMinusLnLn
)

func (v Variant) String() string {
	switch v {
	case Ln:
		return "ln"
	case LnMinusLnLn:
		return "ln-lnln"
	default:
		return fmt.Sprintf("variant(%d)", int8(v))
	}
}

// Scale returns the rounding multiplier for closed 2-neighborhood degree d2.
func (v Variant) Scale(d2 int) float64 {
	ln := math.Log(float64(d2 + 1))
	if v == LnMinusLnLn && ln > 1 {
		// ln ln is positive here; the remark's scaling applies.
		return ln - math.Log(ln)
	}
	return ln
}

// Result is the outcome of one rounding run.
type Result struct {
	// InDS marks the dominating set members.
	InDS []bool
	// Size is the number of members.
	Size int
	// JoinedRandom counts nodes selected by the coin flip (line 3; the
	// random variable X in Theorem 3's proof).
	JoinedRandom int
	// JoinedFixup counts nodes added because their closed neighborhood
	// was empty after the flip (line 6; the random variable Y).
	JoinedFixup int
	// Rounds, Messages, Bits are simulator statistics (zero for the
	// sequential reference).
	Rounds   int
	Messages int64
	Bits     int64
}

// Options configures a rounding run.
type Options struct {
	// Seed drives all coin flips (per-node streams derived from it).
	Seed int64
	// Variant selects the scaling (default Ln).
	Variant Variant
}

func validate(g *graph.Graph, x []float64) error {
	if len(x) != g.N() {
		return fmt.Errorf("rounding: %d x-values for %d vertices", len(x), g.N())
	}
	for i, xi := range x {
		if xi < 0 || math.IsNaN(xi) || math.IsInf(xi, 0) {
			return fmt.Errorf("rounding: x[%d] = %v invalid", i, xi)
		}
	}
	return nil
}

// flip decides membership for a node: the first draw of its per-node stream
// against p. Shared by both executions so they agree bit for bit; the
// fastpath backend compares the same draw's 53 bits (stats.StreamKey.
// Bits53x4) against a per-vertex threshold, ⌈p·2⁵³⌉ capped at 2⁵³ for the
// unclamped p, which decides every case alike.
func flip(seed int64, id int, p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return stats.StreamFloat64(seed, int64(id)) < p
}

// Reference runs Algorithm 1 sequentially.
func Reference(g *graph.Graph, x []float64, opts Options) (*Result, error) {
	if err := validate(g, x); err != nil {
		return nil, err
	}
	n := g.N()
	d2 := g.Degree2()
	inDS := make([]bool, n)
	res := &Result{InDS: inDS}
	// Lines 2-3.
	for v := 0; v < n; v++ {
		p := math.Min(1, x[v]*opts.Variant.Scale(d2[v]))
		if flip(opts.Seed, v, p) {
			inDS[v] = true
			res.JoinedRandom++
		}
	}
	// Lines 4-6: uncovered nodes join.
	joined := make([]bool, n)
	copy(joined, inDS)
	for v := 0; v < n; v++ {
		if joined[v] {
			continue
		}
		covered := false
		for _, u := range g.Neighbors(v) {
			if joined[u] {
				covered = true
				break
			}
		}
		if !covered {
			inDS[v] = true
			res.JoinedFixup++
		}
	}
	res.Size = graph.SetSize(inDS)
	return res, nil
}

// Round runs Algorithm 1 on the message-passing simulator: two rounds to
// compute δ⁽²⁾, one round to exchange membership bits, then the local
// fix-up. Total: 3 communication rounds.
func Round(g *graph.Graph, x []float64, opts Options, simOpts ...sim.Option) (*Result, error) {
	if err := validate(g, x); err != nil {
		return nil, err
	}
	n := g.N()
	inDS := make([]bool, n)
	randJoin := make([]bool, n)
	simOpts = append(simOpts, sim.WithSeed(opts.Seed))
	engine := sim.New(g, simOpts...)
	st, err := engine.RunMachine(func(nd *sim.Node) sim.StepFunc {
		const (
			phStart   = iota // round 0: announce own degree
			phD1             // inbox: neighbor degrees
			phD2             // inbox: neighbor δ⁽¹⁾ values
			phMembers        // inbox: membership bits
		)
		phase := phStart
		var deg, d1 int
		member := false
		return func(nd *sim.Node, inbox []sim.Message) bool {
			switch phase {
			case phStart:
				// Line 1: compute δ⁽²⁾ (two rounds, as the paper's remark
				// describes).
				deg = nd.Degree()
				nd.Broadcast(sim.Uint(uint64(deg)))
				phase = phD1
			case phD1:
				d1 = deg
				for _, msg := range inbox {
					if d := int(msg.Data.(sim.Uint)); d > d1 {
						d1 = d
					}
				}
				nd.Broadcast(sim.Uint(uint64(d1)))
				phase = phD2
			case phD2:
				d2 := d1
				for _, msg := range inbox {
					if d := int(msg.Data.(sim.Uint)); d > d2 {
						d2 = d
					}
				}
				// Lines 2-3.
				p := math.Min(1, x[nd.ID()]*opts.Variant.Scale(d2))
				member = flip(opts.Seed, nd.ID(), p)
				if member {
					randJoin[nd.ID()] = true
				}
				// Line 4: announce membership.
				nd.Broadcast(sim.Bit(member))
				phase = phMembers
			case phMembers:
				// Lines 5-6.
				if !member {
					covered := false
					for _, msg := range inbox {
						if bool(msg.Data.(sim.Bit)) {
							covered = true
							break
						}
					}
					if !covered {
						member = true
					}
				}
				inDS[nd.ID()] = member
				return false
			}
			return true
		}
	})
	if err != nil {
		return nil, fmt.Errorf("rounding: %w", err)
	}
	res := &Result{
		InDS:     inDS,
		Size:     graph.SetSize(inDS),
		Rounds:   st.Rounds,
		Messages: st.Messages,
		Bits:     st.Bits,
	}
	for v := 0; v < n; v++ {
		if randJoin[v] {
			res.JoinedRandom++
		} else if inDS[v] {
			res.JoinedFixup++
		}
	}
	return res, nil
}

// ExpectedSizeBound returns Theorem 3's guarantee (1 + α·ln(∆+1))·optSize
// for the Ln variant, and the remark's 2α(ln(∆+1) − ln ln(∆+1))·optSize for
// LnMinusLnLn (falling back to the Ln bound when ln ln(∆+1) ≤ 0).
func ExpectedSizeBound(v Variant, alpha float64, delta int, optSize float64) float64 {
	ln := math.Log(float64(delta + 1))
	switch v {
	case LnMinusLnLn:
		if ln > 1 {
			return 2 * alpha * (ln - math.Log(ln)) * optSize
		}
		fallthrough
	default:
		return (1 + alpha*ln) * optSize
	}
}
