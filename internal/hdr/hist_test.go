package hdr

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Record(time.Duration(i))
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.MinMS(); got != 1e-6 {
		t.Errorf("min = %v ns, want 1", got*1e6)
	}
	if got := h.MaxMS(); got != 10e-6 {
		t.Errorf("max = %v ns, want 10", got*1e6)
	}
	// Sub-64ns values land in exact buckets: the median of 1..10 is 5.
	if got := h.Quantile(0.5) * 1e6; got != 5 {
		t.Errorf("p50 = %v ns, want 5", got)
	}
}

// TestHistogramQuantileAccuracy checks the log-linear error bound: every
// quantile must land within ~3.2% (one sub-bucket) of the exact
// order-statistic value.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over ~5 decades: 10µs .. 1s.
		d := time.Duration(math.Pow(10, 4+5*rng.Float64()))
		vals[i] = float64(d)
		h.Record(d)
	}
	// Exact order statistics for comparison.
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exactNS := sorted[int(math.Ceil(q*float64(n)))-1]
		gotNS := h.Quantile(q) * 1e6
		if rel := math.Abs(gotNS-exactNS) / exactNS; rel > 0.032 {
			t.Errorf("q=%v: got %.0f ns, exact %.0f ns, rel err %.4f > 0.032", q, gotNS, exactNS, rel)
		}
	}
	if h.MaxMS()*1e6 != sorted[n-1] {
		t.Errorf("max %.0f != exact %.0f", h.MaxMS()*1e6, sorted[n-1])
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.MeanMS() != 0 {
		t.Error("empty histogram must report zeros")
	}
	if h.SumMS() != 0 || h.MinMS() != 0 || h.MaxMS() != 0 {
		t.Error("empty histogram sum/extrema must be zero")
	}
	for _, d := range []time.Duration{0, -time.Second} { // both clamp to 0 ns
		h = Histogram{}
		h.Record(d)
		if h.MinMS() != 0 || h.MaxMS() != 0 || h.Count() != 1 {
			t.Errorf("Record(%v) mishandled: %+v", d, h)
		}
		if h.Quantile(0.99) != 0 {
			t.Errorf("Record(%v): quantile of the zero bucket = %v, want 0", d, h.Quantile(0.99))
		}
	}
}

// TestHistogramQuantileBounds pins the q=0 and q=1 endpoints: they stay
// inside the exact observed [min, max] (the clamp) and within one
// sub-bucket of the extrema. A single-sample histogram collapses the clamp
// range, so every quantile must return that sample exactly.
func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{100, 1000, 123456, 7_000_000} {
		h.Record(time.Duration(ns))
	}
	if got := h.Quantile(0); got < h.MinMS() || got > h.MinMS()*1.032 {
		t.Errorf("Quantile(0) = %v, want within one sub-bucket above min %v", got, h.MinMS())
	}
	if got := h.Quantile(1); got > h.MaxMS() || got < h.MaxMS()/1.032 {
		t.Errorf("Quantile(1) = %v, want within one sub-bucket below max %v", got, h.MaxMS())
	}

	var one Histogram
	one.Record(123456 * time.Nanosecond)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q) * 1e6; got != 123456 {
			t.Errorf("single sample: Quantile(%v) = %v ns, want 123456", q, got)
		}
	}
}

// TestBucketIndexBoundary is a white-box check of the exact→log-linear
// seam at 64 ns: indices stay contiguous and monotonic across it, and the
// bucket midpoint keeps representing its own bucket.
func TestBucketIndexBoundary(t *testing.T) {
	if got := bucketIndex(63); got != 63 {
		t.Errorf("bucketIndex(63) = %d, want 63 (last exact bucket)", got)
	}
	if got := bucketIndex(64); got != 64 {
		t.Errorf("bucketIndex(64) = %d, want 64 (first log-linear bucket)", got)
	}
	prev := -1
	for v := uint64(1); v < 1<<20; v = v + 1 + v/7 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotonic: bucketIndex(%d) = %d < %d", v, idx, prev)
		}
		prev = idx
		if mid := bucketMid(idx); bucketIndex(uint64(mid)) != idx {
			t.Fatalf("bucketMid(%d) = %v maps back to bucket %d", idx, mid, bucketIndex(uint64(mid)))
		}
	}
}

func TestHistogramSummaryMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Record(time.Duration(rng.Int63n(int64(3 * time.Second))))
	}
	s := h.Summary()
	if !(s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("non-monotonic summary: %+v", s)
	}
}
