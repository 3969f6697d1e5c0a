package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the splitmix64 reference implementation
	// (Vigna), seeded at 0 and stepping the state by the golden gamma.
	got := SplitMix64(0)
	want := uint64(0xe220a8397b1dcdaf)
	if got != want {
		t.Fatalf("SplitMix64(0) = %#x, want %#x", got, want)
	}
}

func TestSplitMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		v := SplitMix64(i)
		if seen[v] {
			t.Fatalf("collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestMixDecorrelatesStreams(t *testing.T) {
	// Consecutive streams from the same seed must differ in many bits.
	a := Mix(42, 0)
	b := Mix(42, 1)
	diff := a ^ b
	popcount := 0
	for diff != 0 {
		popcount++
		diff &= diff - 1
	}
	if popcount < 10 {
		t.Fatalf("Mix(42,0) and Mix(42,1) differ in only %d bits", popcount)
	}
}

func TestNewStreamRandDeterminism(t *testing.T) {
	r1 := NewStreamRand(7, 3)
	r2 := NewStreamRand(7, 3)
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("same (seed,stream) produced different sequences at step %d", i)
		}
	}
	r3 := NewStreamRand(7, 4)
	same := 0
	r1 = NewStreamRand(7, 3)
	for i := 0; i < 100; i++ {
		if r1.Uint64() == r3.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 3 and 4 coincide on %d of 100 draws", same)
	}
}

func TestSummarizeBasics(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want Summary
	}{
		{"single", []float64{5}, Summary{N: 1, Mean: 5, Min: 5, Max: 5, Median: 5}},
		{"pair", []float64{1, 3}, Summary{N: 2, Mean: 2, Std: math.Sqrt(2), Min: 1, Max: 3, Median: 2}},
		{"run", []float64{1, 2, 3, 4, 5}, Summary{N: 5, Mean: 3, Std: math.Sqrt(2.5), Min: 1, Max: 5, Median: 3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Summarize(tc.in)
			if got.N != tc.want.N || !almostEqual(got.Mean, tc.want.Mean, 1e-12) ||
				!almostEqual(got.Std, tc.want.Std, 1e-12) ||
				got.Min != tc.want.Min || got.Max != tc.want.Max ||
				!almostEqual(got.Median, tc.want.Median, 1e-12) {
				t.Errorf("Summarize(%v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestSummarizeEmpty(t *testing.T) {
	got := Summarize(nil)
	if got.N != 0 {
		t.Fatalf("Summarize(nil).N = %d, want 0", got.N)
	}
	if Summarize(nil).CI95() != 0 {
		t.Fatal("CI95 of empty sample should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	// The input must not be reordered.
	if xs[0] != 4 || xs[3] != 2 {
		t.Error("Quantile mutated its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty sample should be NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Mean = %v, want 4", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean of empty sample should be NaN")
	}
}

func TestTableMarkdownAndPlain(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, 2.5)
	tb.AddRow("x") // short row

	md := tb.Markdown()
	for _, want := range []string{"**demo**", "| a | b |", "| --- | --- |", "| 1 | 2.5 |", "| x |  |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q in:\n%s", want, md)
		}
	}
	plain := tb.Plain()
	if !strings.Contains(plain, "demo") || !strings.Contains(plain, "2.5") {
		t.Errorf("plain rendering missing content:\n%s", plain)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
	row := tb.Row(0)
	row[0] = "mutated"
	if tb.Row(0)[0] == "mutated" {
		t.Error("Row must return a copy")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if str := s.String(); !strings.Contains(str, "2") {
		t.Errorf("Summary.String() = %q looks wrong", str)
	}
}
