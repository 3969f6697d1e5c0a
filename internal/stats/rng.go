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

// Float64 returns StreamFloat64(seed, stream) for the key's seed.
func (k StreamKey) Float64(stream int64) float64 {
	s := k.mix(stream)
	var p rand.PCG
	p.Seed(s, SplitMix64(s))
	// rand.Rand.Float64 on a 64-bit source: top 53 bits over 2⁵³.
	return float64(p.Uint64()<<11>>11) / (1 << 53)
}
