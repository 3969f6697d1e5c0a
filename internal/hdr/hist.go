// Package hdr is the HDR-style log-linear latency histogram shared by the
// kwbench harness and the serve /metrics endpoint. It lives in its own leaf
// package (no kwmds imports) because both sides of the serving stack need
// it: internal/kwbench drives internal/server in its http driver, so the
// server cannot import the harness — the histogram is the piece they share.
package hdr

import (
	"math"
	"math/bits"
	"time"
)

// Histogram is an HDR-style log-linear latency histogram: nanosecond values
// land in power-of-two major ranges of 32 linear sub-buckets each, giving a
// bounded ≤ ~3% relative error across the full duration range with a fixed
// 16 KiB footprint and no allocation on the record path. A Histogram is not
// safe for concurrent use: callers that share one serialize recording.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sumNS  float64
	minNS  uint64
	maxNS  uint64
}

const (
	subBits     = 5 // 32 linear sub-buckets per power of two
	subCount    = 1 << subBits
	histBuckets = 2048 // covers every positive int64 nanosecond value
)

// bucketIndex maps a nanosecond value to its bucket. Values below 64 ns get
// exact buckets; above, the index is exp·32 + (v >> exp) with
// exp = ⌊log₂ v⌋ − 5, so each bucket spans 2^exp ns.
func bucketIndex(v uint64) int {
	if v < 2*subCount {
		return int(v)
	}
	exp := bits.Len64(v) - subBits - 1
	return exp<<subBits + int(v>>uint(exp))
}

// bucketMid returns the representative (midpoint) value of a bucket in ns.
func bucketMid(idx int) float64 {
	if idx < 2*subCount {
		return float64(idx)
	}
	exp := idx>>subBits - 1
	lo := uint64(idx-exp<<subBits) << uint(exp)
	return float64(lo) + float64(uint64(1)<<uint(exp))/2
}

// Record adds one latency observation. Non-positive durations count as 0 ns.
func (h *Histogram) Record(d time.Duration) {
	var v uint64
	if d > 0 {
		v = uint64(d)
	}
	if h.count == 0 || v < h.minNS {
		h.minNS = v
	}
	if v > h.maxNS {
		h.maxNS = v
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sumNS += float64(v)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// SumMS returns the sum of every recorded observation in milliseconds.
func (h *Histogram) SumMS() float64 { return h.sumNS / 1e6 }

// Quantile returns the q-quantile in milliseconds (0 ≤ q ≤ 1), clamped to
// the exact observed [min, max] so tail percentiles never exceed the true
// maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			ns := bucketMid(i)
			ns = math.Max(ns, float64(h.minNS))
			ns = math.Min(ns, float64(h.maxNS))
			return ns / 1e6
		}
	}
	return float64(h.maxNS) / 1e6
}

// MinMS, MaxMS and MeanMS report the exact extrema and mean in ms.
func (h *Histogram) MinMS() float64 { return float64(h.minNS) / 1e6 }
func (h *Histogram) MaxMS() float64 { return float64(h.maxNS) / 1e6 }
func (h *Histogram) MeanMS() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sumNS / float64(h.count) / 1e6
}

// Summary extracts the standard percentile block in ms.
func (h *Histogram) Summary() Summary {
	return Summary{
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
		Min:  h.MinMS(),
		Max:  h.MaxMS(),
		Mean: h.MeanMS(),
	}
}

// Summary is the percentile extract of a histogram, in milliseconds.
type Summary struct {
	P50, P90, P99, P999, Min, Max, Mean float64
}
