package stats

import (
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

// TestStreamKeyFloat64x4MatchesFloat64 pins the four-stream draw the
// rounding kernel's flip uses: lane i of Float64x4(stream) is
// Float64(stream+i) and the first Float64 of NewStreamRand(seed,
// stream+i), at the seeds where sign and overflow could bite and at
// streams up to the last group that ends at MaxInt64.
func TestStreamKeyFloat64x4MatchesFloat64(t *testing.T) {
	for _, seed := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		key := NewStreamKey(seed)
		for _, stream := range append([]int64{math.MaxInt64 - 3}, firstStreams(1000)...) {
			u0, u1, u2, u3 := key.Float64x4(stream)
			for i, got := range []float64{u0, u1, u2, u3} {
				s := stream + int64(i)
				if want := key.Float64(s); got != want {
					t.Fatalf("NewStreamKey(%d).Float64x4(%d) lane %d = %v, Float64(%d) = %v", seed, stream, i, got, s, want)
				}
				if want := NewStreamRand(seed, s).Float64(); got != want {
					t.Fatalf("NewStreamKey(%d).Float64x4(%d) lane %d = %v, NewStreamRand = %v", seed, stream, i, got, want)
				}
			}
		}
	}
}
