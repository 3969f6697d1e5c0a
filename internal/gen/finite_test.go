package gen

import (
	"math"
	"testing"
)

// TestGeneratorsRejectNonFinite checks every generator taking a float
// parameter against NaN and ±Inf: a `< 0` guard alone silently accepts NaN
// (all NaN comparisons are false) and Inf produces degenerate topologies.
func TestGeneratorsRejectNonFinite(t *testing.T) {
	bads := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, bad := range bads {
		if _, err := GNP(10, bad, 1); err == nil {
			t.Errorf("GNP accepted p=%v", bad)
		}
		if _, err := UnitDisk(10, bad, 1); err == nil {
			t.Errorf("UnitDisk accepted radius=%v", bad)
		}
		if _, _, err := UnitDiskPoints(10, bad, 1); err == nil {
			t.Errorf("UnitDiskPoints accepted radius=%v", bad)
		}
		pts := []Point{{0.1, 0.1}, {0.2, 0.2}}
		if _, err := UnitDiskFromPoints(pts, bad); err == nil {
			t.Errorf("UnitDiskFromPoints accepted radius=%v", bad)
		}
	}
	// The guards must not over-reject valid boundary values.
	if _, err := GNP(10, 1, 1); err != nil {
		t.Errorf("GNP rejected p=1: %v", err)
	}
	if _, err := UnitDisk(10, 0, 1); err != nil {
		t.Errorf("UnitDisk rejected radius=0: %v", err)
	}
}
