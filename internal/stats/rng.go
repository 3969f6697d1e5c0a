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

func (k StreamKey) mix(stream int64) uint64 {
	return SplitMix64(uint64(k) ^ SplitMix64(uint64(stream)+0x5851f42d4c957f2d))
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

// Float64 returns StreamFloat64(seed, stream) for the key's seed. It is
// the first lane of Float64x4, so the draw has one definition; a caller
// drawing one value per stream of a run of streams calls Float64x4 instead.
func (k StreamKey) Float64(stream int64) float64 {
	u, _, _, _ := k.Float64x4(stream)
	return u
}

// Float64x4 returns Float64 of the four streams stream, stream+1, stream+2
// and stream+3. The four draws share no state, so written out side by side
// their multiply chains overlap in the core, where four calls would run
// them one after another. Each is the first Float64 of a PCG seeded with
// (s, SplitMix64(s)) for the stream's mix s, as NewStreamRand seeds it:
// rand.Rand.Float64 on a 64-bit source takes the top 53 bits over 2⁵³.
func (k StreamKey) Float64x4(stream int64) (u0, u1, u2, u3 float64) {
	s0, s1, s2, s3 := k.mix(stream), k.mix(stream+1), k.mix(stream+2), k.mix(stream+3)
	var p0, p1, p2, p3 rand.PCG
	p0.Seed(s0, SplitMix64(s0))
	p1.Seed(s1, SplitMix64(s1))
	p2.Seed(s2, SplitMix64(s2))
	p3.Seed(s3, SplitMix64(s3))
	return unit(p0.Uint64()), unit(p1.Uint64()), unit(p2.Uint64()), unit(p3.Uint64())
}

// unit maps a 64-bit draw to [0, 1) as rand.Rand.Float64 does.
func unit(r uint64) float64 { return float64(r<<11>>11) / (1 << 53) }
