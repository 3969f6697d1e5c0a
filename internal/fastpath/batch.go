package fastpath

import (
	"fmt"

	"kwmds/internal/core"
	"kwmds/internal/graph"
)

// SolveMany runs the full pipeline once per element of opts against a
// single graph, amortizing what per-request Solve calls pay repeatedly:
// solver preparation, worker-pool start/stop, pow/log-table setup and —
// decisively — the LP stage itself. The LP stage is deterministic, so an
// element whose LP configuration (algorithm, k, cost contents) matches the
// solver's LP memo reuses the memoized fractional solution and pays only
// its rounding phases. The memo holds one configuration and elements are
// processed in order, so callers wanting maximal sharing should group
// same-configuration elements together.
//
// each is invoked once per element, in order. The Result passed to it
// aliases the solver's storage, is read-only and is valid only during the
// callback: copy anything kept. Every element's output is bit-identical to
// a standalone Solve with the same options — the batch determinism tests
// enforce this at every worker count.
//
// The phase pool is sized by opts[0].Workers; later elements' Workers
// fields are ignored (output does not depend on the worker count).
// Validation covers all elements before any work: one bad element fails
// the whole batch up front.
func (s *Solver) SolveMany(g *graph.Graph, opts []Options, each func(i int, res Result)) error {
	if len(opts) == 0 {
		return nil
	}
	if g == nil {
		return fmt.Errorf("fastpath: nil graph")
	}
	n := g.N()
	for i := range opts {
		if err := core.ValidateK(opts[i].K); err != nil {
			return fmt.Errorf("fastpath: batch element %d: %w", i, err)
		}
		if opts[i].Algorithm == AlgWeighted {
			if _, err := validateCosts(n, opts[i].Costs); err != nil {
				return fmt.Errorf("fastpath: batch element %d: %w", i, err)
			}
		}
		if opts[i].Relab != opts[0].Relab {
			// The whole batch runs over one prepared CSR; a per-element
			// relabeling switch would force a re-prepare, defeating the
			// batching. Callers attach one Relabeled (or none) batch-wide.
			return fmt.Errorf("fastpath: batch element %d: Options.Relab differs from element 0", i)
		}
	}
	if err := s.prepare(g, opts[0]); err != nil {
		return err
	}
	defer s.stopWorkers()
	for i := range opts {
		s.lp(g, opts[i])
		res := s.roundPhases(s.x[:s.n], opts[i])
		res.X = s.emitX()
		each(i, res)
	}
	return nil
}
