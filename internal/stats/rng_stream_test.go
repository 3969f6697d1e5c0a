package stats

import (
	"fmt"
	"math"
	"testing"
)

// TestStreamFloat64MatchesNewStreamRand pins the contract the rounding
// fastpath relies on: StreamFloat64(seed, stream) is bit-identical to the
// first Float64 drawn from NewStreamRand(seed, stream).
func TestStreamFloat64MatchesNewStreamRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, -3, 1 << 40} {
		for stream := int64(0); stream < 500; stream++ {
			want := NewStreamRand(seed, stream).Float64()
			got := StreamFloat64(seed, stream)
			if got != want {
				t.Fatalf("StreamFloat64(%d, %d) = %v, want %v", seed, stream, got, want)
			}
		}
	}
}

// TestStreamFloat64NoAlloc keeps the fast flip genuinely heap-free.
func TestStreamFloat64NoAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		StreamFloat64(7, 123)
	})
	if allocs != 0 {
		t.Fatalf("StreamFloat64 allocates %.1f objects per call, want 0", allocs)
	}
}

// TestStreamKeyMatchesStreamFloat64 pins the keyed draw the rounding
// fastpath uses: NewStreamKey(seed).Float64(stream) is StreamFloat64(seed,
// stream) and the first Float64 of NewStreamRand(seed, stream), at the
// seeds where sign and overflow could bite, and equals the values the
// unkeyed implementation drew before StreamFloat64 was rebuilt on it.
func TestStreamKeyMatchesStreamFloat64(t *testing.T) {
	seeds := []int64{0, -1, math.MinInt64, math.MaxInt64}
	for _, seed := range seeds {
		key := NewStreamKey(seed)
		for _, stream := range append([]int64{math.MinInt64, -1, math.MaxInt64}, firstStreams(1000)...) {
			got := key.Float64(stream)
			if want := StreamFloat64(seed, stream); got != want {
				t.Fatalf("NewStreamKey(%d).Float64(%d) = %v, StreamFloat64 = %v", seed, stream, got, want)
			}
			if want := NewStreamRand(seed, stream).Float64(); got != want {
				t.Fatalf("NewStreamKey(%d).Float64(%d) = %v, NewStreamRand = %v", seed, stream, got, want)
			}
		}
	}
	for _, g := range []struct {
		seed, stream int64
		bits         uint64
	}{
		{0, 0, 0x3fbae11bc5818de0},
		{0, 9999, 0x3fbc6a92ca014af8},
		{-1, 63, 0x3fddf17a547634e2},
		{-1, math.MaxInt64, 0x3fef941d58f54435},
		{math.MinInt64, 0, 0x3fe7bd7ce463fb74},
		{math.MinInt64, math.MaxInt64, 0x3fdfe374cf79983e},
		{math.MaxInt64, 63, 0x3fab49b4512ed620},
		{math.MaxInt64, 9999, 0x3fd56c402a93e592},
	} {
		if got := math.Float64bits(NewStreamKey(g.seed).Float64(g.stream)); got != g.bits {
			t.Errorf("NewStreamKey(%d).Float64(%d) bits %#016x, want %#016x", g.seed, g.stream, got, g.bits)
		}
	}
}

func firstStreams(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// TestStreamKeyBits53MatchesFloat64 pins the split draw the rounding
// kernel's flip compares against its thresholds: at the seeds and streams
// of TestStreamKeyMatchesStreamFloat64, Bits53(StreamHalf(stream)) and
// every lane of Bits53x4 over four streams' halves are Float64(stream)·2⁵³
// exactly, and below 2⁵³.
func TestStreamKeyBits53MatchesFloat64(t *testing.T) {
	streams := append([]int64{math.MinInt64, -1, math.MaxInt64}, firstStreams(1000)...)
	for _, seed := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		key := NewStreamKey(seed)
		check := func(what string, stream int64, got uint64) {
			t.Helper()
			want := key.Float64(stream) * (1 << 53)
			if got >= 1<<53 || float64(got) != want {
				t.Fatalf("NewStreamKey(%d).%s for stream %d = %d, want Float64·2⁵³ = %v", seed, what, stream, got, want)
			}
		}
		for i, stream := range streams {
			check("Bits53", stream, key.Bits53(StreamHalf(stream)))
			// Each stream in each lane: the four lanes read streams i..i+3
			// of the list, wrapping at its end.
			q := [4]int64{}
			for j := range q {
				q[j] = streams[(i+j)%len(streams)]
			}
			m0, m1, m2, m3 := key.Bits53x4(StreamHalf(q[0]), StreamHalf(q[1]), StreamHalf(q[2]), StreamHalf(q[3]))
			for j, m := range [4]uint64{m0, m1, m2, m3} {
				check(fmt.Sprintf("Bits53x4 lane %d", j), q[j], m)
			}
		}
	}
}

var benchSink float64

// BenchmarkStreamFloat64 times one draw as rounding.Reference and the
// simulated Algorithm 1 take it: one StreamFloat64 call per vertex, a new
// stream each.
func BenchmarkStreamFloat64(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += StreamFloat64(7, int64(i))
	}
	benchSink = sum
}
