package kwmds

import (
	"errors"
	"fmt"
	"math"

	"kwmds/internal/core"
	"kwmds/internal/rounding"
)

// ErrInvalidOptions marks every error returned for a malformed Options
// value. Callers that accept options from untrusted input (the serve
// subsystem, request handlers) match it with errors.Is to map validation
// failures to client errors rather than internal ones.
var ErrInvalidOptions = errors.New("invalid options")

// MaxK is the largest accepted trade-off parameter. Larger k only adds
// rounds: beyond log₂(∆) the algorithm's thresholds collapse to 1.
const MaxK = core.MaxK

// Validate checks opts against g and returns a descriptive error wrapping
// ErrInvalidOptions if any field is out of range: K must lie in [0, MaxK]
// (0 selects k = Θ(log ∆)), Weights — when non-nil — must have exactly
// g.N() finite entries ≥ 1, and Variant must be a known rounding variant.
// Every facade entry point validates its options; calling Validate directly
// is only needed to vet untrusted input without running anything.
func (o Options) Validate(g *Graph) error {
	if g == nil {
		return fmt.Errorf("%w: nil graph", ErrInvalidOptions)
	}
	if o.K < 0 || o.K > MaxK {
		return fmt.Errorf("%w: K = %d outside [0, %d] (0 selects k = log ∆)",
			ErrInvalidOptions, o.K, MaxK)
	}
	switch o.Variant {
	case rounding.Ln, rounding.LnMinusLnLn:
	default:
		return fmt.Errorf("%w: unknown rounding variant %d", ErrInvalidOptions, o.Variant)
	}
	if o.Weights != nil {
		if len(o.Weights) != g.N() {
			return fmt.Errorf("%w: %d weights for %d vertices",
				ErrInvalidOptions, len(o.Weights), g.N())
		}
		for i, c := range o.Weights {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 1 {
				return fmt.Errorf("%w: weight[%d] = %v outside [1, ∞)",
					ErrInvalidOptions, i, c)
			}
		}
	}
	return nil
}
