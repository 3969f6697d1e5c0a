package testsupport

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// RequireBitIdentical fails t unless got and want are bit-for-bit equal.
// It exists for the differential suites (churn, crash recovery),
// whose contract is not "approximately the same answer" but "the same
// bits": two executions of one deterministic algorithm. Both arguments
// are compared structurally by reflection — typically two *kwmds.Result
// values (reflection rather than a concrete parameter keeps this package
// importable from inside the packages kwmds is built from) — with
// float64s compared by IEEE bit pattern, so +0 ≠ -0 and NaN = NaN with
// the same payload: exactly the "bit-identical" the differential harnesses
// promise, where reflect.DeepEqual's ==-based float comparison would blur
// it.
func RequireBitIdentical(t testing.TB, got, want any) {
	t.Helper()
	if diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want), "x"); diff != "" {
		t.Fatalf("results not bit-identical: %s", diff)
	}
}

// RequireBitIdenticalIn is RequireBitIdentical with ctx prefixed to the
// failure, for harnesses whose failing case (workload, epoch, step) a
// field path alone would not name.
func RequireBitIdenticalIn(t testing.TB, ctx string, got, want any) {
	t.Helper()
	if diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want), "x"); diff != "" {
		t.Fatalf("%s: results not bit-identical: %s", ctx, diff)
	}
}

// bitDiff walks a and b in lockstep and reports the first mismatch as
// "path: got … want …" (empty for bit-identical values).
func bitDiff(a, b reflect.Value, path string) string {
	if a.IsValid() != b.IsValid() {
		return fmt.Sprintf("%s: got valid=%v want valid=%v", path, a.IsValid(), b.IsValid())
	}
	if !a.IsValid() {
		return ""
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %v vs %v", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: got nil=%v want nil=%v", path, a.IsNil(), b.IsNil())
		}
		if a.IsNil() {
			return ""
		}
		return bitDiff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: got nil=%v want nil=%v", path, a.IsNil(), b.IsNil())
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: map len %d vs %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			av, bv := a.MapIndex(k), b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing in want", path, k)
			}
			if d := bitDiff(av, bv, fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Float32, reflect.Float64:
		ab, bb := math.Float64bits(a.Float()), math.Float64bits(b.Float())
		if a.Kind() == reflect.Float32 {
			ab = uint64(math.Float32bits(float32(a.Float())))
			bb = uint64(math.Float32bits(float32(b.Float())))
		}
		if ab != bb {
			return fmt.Sprintf("%s: %v (bits %#x) vs %v (bits %#x)", path, a.Float(), ab, b.Float(), bb)
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
		return ""
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
		return ""
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
		return ""
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
		return ""
	case reflect.Complex64, reflect.Complex128:
		if a.Complex() != b.Complex() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Complex(), b.Complex())
		}
		return ""
	default:
		return fmt.Sprintf("%s: unsupported kind %v", path, a.Kind())
	}
}
