package graphio

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

func TestEdgeListRoundtrip(t *testing.T) {
	g, err := gen.GNP(60, 0.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("roundtrip changed graph: %v -> %v", g, g2)
	}
	e1, e2 := g.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d changed: %v -> %v", i, e1[i], e2[i])
		}
	}
}

func TestEdgeListIsolatedVerticesSurvive(t *testing.T) {
	g := graph.MustNew(5, [][2]int{{0, 1}}) // vertices 2..4 isolated
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 5 {
		t.Errorf("n = %d after roundtrip, want 5", g2.N())
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := `# a comment

n 4
0 1
# another
2 3
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Errorf("parsed n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListInfersN(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n5 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 {
		t.Errorf("inferred n = %d, want 6", g.N())
	}
}

// TestReadEdgeListRefusesHugeIDs: one edge to vertex 3 000 000 000 implies
// n past int32 ids, and the reader fails with the bound named instead of
// sizing its arrays by n.
func TestReadEdgeListRefusesHugeIDs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEdgeList(strings.NewReader("0 3000000000\n"))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("ReadEdgeList(\"0 3000000000\") = %v, want an error naming the bound 2147483647", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("ReadEdgeList allocated %d bytes before refusing", grew)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"bad header", "n x\n"},
		{"header extra fields", "n 4 5\n"},
		{"negative header", "n -2\n"},
		{"one field", "3\n"},
		{"three fields", "1 2 3\n"},
		{"non-numeric u", "a 2\n"},
		{"non-numeric v", "1 b\n"},
		{"self loop", "1 1\n"},
		{"out of declared range", "n 2\n0 5\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Errorf("input %q accepted, want error", tc.in)
			}
		})
	}
}
