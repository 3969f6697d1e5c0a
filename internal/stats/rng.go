// Package stats provides the measurement substrate shared by the whole
// repository: deterministic random-number seeding, summary statistics, and
// plain-text table rendering for experiment reports.
//
// All randomness in the repository flows through this package so that every
// algorithm run, generator invocation and experiment is reproducible from a
// single int64 seed.
package stats

import "math/rand/v2"

// SplitMix64 is the splitmix64 mixing function. It turns correlated inputs
// (such as consecutive node ids) into statistically independent 64-bit
// values, which makes it a good seed deriver for per-node random streams.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix combines a base seed with a stream index (for example a node id) into
// a new seed that is decorrelated from both inputs and from neighboring
// stream indices.
func Mix(seed int64, stream int64) uint64 {
	return NewStreamKey(seed).mix(stream)
}

// StreamKey is the seed's half of Mix, SplitMix64(seed), so that a loop
// drawing one value per stream of one seed computes it once.
type StreamKey uint64

// NewStreamKey returns the key of seed.
func NewStreamKey(seed int64) StreamKey { return StreamKey(SplitMix64(uint64(seed))) }

// StreamHalf returns the stream's half of Mix, a function of the stream
// alone, so that a caller drawing for the same streams under many seeds
// can tabulate it once and draw through Bits53.
func StreamHalf(stream int64) uint64 { return SplitMix64(uint64(stream) + 0x5851f42d4c957f2d) }

func (k StreamKey) mix(stream int64) uint64 {
	return SplitMix64(uint64(k) ^ StreamHalf(stream))
}

// NewRand returns a deterministic *rand.Rand for the given seed.
func NewRand(seed int64) *rand.Rand {
	s := SplitMix64(uint64(seed))
	return rand.New(rand.NewPCG(s, SplitMix64(s)))
}

// NewStreamRand returns a deterministic *rand.Rand for stream `stream`
// (typically a node id) derived from the given base seed. Distinct streams
// yield independent sequences; the same (seed, stream) pair always yields
// the same sequence.
func NewStreamRand(seed int64, stream int64) *rand.Rand {
	s := Mix(seed, stream)
	return rand.New(rand.NewPCG(s, SplitMix64(s)))
}

// StreamFloat64 returns the first Float64 of NewStreamRand(seed, stream)
// without allocating: the PCG state lives on the stack instead of behind a
// *rand.Rand. The rounding stage flips one coin per vertex from a fresh
// per-node stream, so on large graphs the two-allocation constructor above
// dominated the fastpath solver's garbage; this is the same draw, heap-free
// (TestStreamFloat64MatchesNewStreamRand pins the equivalence).
func StreamFloat64(seed int64, stream int64) float64 {
	return NewStreamKey(seed).Float64(stream)
}

// Float64 returns StreamFloat64(seed, stream) for the key's seed: the
// stream's 53 bits from Bits53 over 2⁵³, as rand.Rand.Float64 maps them,
// so the draw has one definition.
func (k StreamKey) Float64(stream int64) float64 {
	return float64(k.Bits53(StreamHalf(stream))) / (1 << 53)
}

// Bits53 returns the 53 bits that Float64 of the stream whose StreamHalf
// is half divides by 2⁵³: the first Uint64 of a PCG seeded with
// (s, SplitMix64(s)) for the stream's mix s, as NewStreamRand seeds it,
// with its top 11 bits cleared, as rand.Rand.Float64 clears them on a
// 64-bit source.
func (k StreamKey) Bits53(half uint64) uint64 {
	s := SplitMix64(uint64(k) ^ half)
	var p rand.PCG
	p.Seed(s, SplitMix64(s))
	return p.Uint64() << 11 >> 11
}

// Bits53x4 returns Bits53 of four halves. The four draws share no state,
// so written out side by side their multiply chains overlap in the core,
// where four calls would run them one after another.
func (k StreamKey) Bits53x4(h0, h1, h2, h3 uint64) (m0, m1, m2, m3 uint64) {
	s0, s1 := SplitMix64(uint64(k)^h0), SplitMix64(uint64(k)^h1)
	s2, s3 := SplitMix64(uint64(k)^h2), SplitMix64(uint64(k)^h3)
	var p0, p1, p2, p3 rand.PCG
	p0.Seed(s0, SplitMix64(s0))
	p1.Seed(s1, SplitMix64(s1))
	p2.Seed(s2, SplitMix64(s2))
	p3.Seed(s3, SplitMix64(s3))
	return p0.Uint64() << 11 >> 11, p1.Uint64() << 11 >> 11, p2.Uint64() << 11 >> 11, p3.Uint64() << 11 >> 11
}
