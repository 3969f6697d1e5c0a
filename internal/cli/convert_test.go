package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graphio"
)

// TestConvertRoundTrip: gen → binary → text → binary must preserve the
// digest at every hop, and LoadGraph must load .kwcsr files directly.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.kwcsr")
	txt := filepath.Join(dir, "g.edges")
	bin2 := filepath.Join(dir, "g2.kwcsr")

	var out strings.Builder
	if err := RunConvert(ConvertConfig{In: "gen:udg:500:0.08:5", Out: bin}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := gen.FromSpec("udg:500:0.08:5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), graphio.Digest(want)) {
		t.Errorf("report %q does not echo the digest", out.String())
	}

	g, err := LoadGraph(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if graphio.Digest(g) != graphio.Digest(want) {
		t.Fatal("binary load changed the graph")
	}

	if err := RunConvert(ConvertConfig{In: bin, Out: txt}, &out); err != nil {
		t.Fatal(err)
	}
	if err := RunConvert(ConvertConfig{In: txt, Out: bin2}, &out); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(bin2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if graphio.Digest(g2) != graphio.Digest(want) {
		t.Fatal("binary → text → binary changed the graph")
	}
}

func TestConvertErrors(t *testing.T) {
	var out strings.Builder
	if err := RunConvert(ConvertConfig{}, &out); err == nil {
		t.Error("missing flags accepted")
	}
	if err := RunConvert(ConvertConfig{In: "does-not-exist.edges", Out: "x.kwcsr"}, &out); err == nil {
		t.Error("missing input accepted")
	}
	// A corrupt container must be rejected on load, not silently converted.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.kwcsr")
	if err := os.WriteFile(bad, []byte("kwcsr\x00 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RunConvert(ConvertConfig{In: bad, Out: filepath.Join(dir, "o.edges")}, &out); err == nil {
		t.Error("corrupt container accepted")
	}
}
