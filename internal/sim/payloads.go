package sim

import "math/bits"

// Common payload types shared by the algorithms. The Bits methods implement
// compact wire encodings, so the bit totals measure message sizes rather
// than Go memory: flags cost one bit, integers cost their binary length,
// raw floats cost a full word. Algorithms whose values have a compact index
// representation (such as the x-values (∆+1)^{-m/k} of Algorithm 2) define
// their own payload types so the bit accounting reflects the encoding the
// paper assumes.

// Flag is a 1-bit payload whose meaning is carried by its presence (for
// example the "active node" notification of Algorithm 3).
type Flag struct{}

// Bits returns 1.
func (Flag) Bits() int { return 1 }

// Bit is a 1-bit boolean payload (for example a node color: white/gray).
type Bit bool

// Bits returns 1.
func (Bit) Bits() int { return 1 }

// Uint carries a non-negative integer (a degree, a count, an id); the wire
// width is the value's binary length.
type Uint uint64

// Bits returns the binary length of the value (minimum 1).
func (u Uint) Bits() int {
	if u == 0 {
		return 1
	}
	return bits.Len64(uint64(u))
}

// Float carries an arbitrary float64 with no compact encoding; it is
// accounted as a full 64-bit word. Used only where the paper itself gives
// no smaller representation.
type Float float64

// Bits returns 64.
func (Float) Bits() int { return 64 }
