package graphio

import (
	"strings"
	"testing"

	"kwmds/internal/graph"
)

// TestReadEdgeListMalformed drives the parser's rejection paths; every
// error must carry the line number where the problem occurs.
func TestReadEdgeListMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring of the error message
	}{
		{"duplicate header", "n 5\nn 9\n0 1\n", "line 2: duplicate \"n\" header"},
		{"header after edges", "0 1\nn 5\n", "line 2: \"n\" header after 1 edge lines"},
		{"header after edges with comments", "# c\n\n0 1\n1 2\nn 9\n", "line 5: \"n\" header after 2 edge lines"},
		{"out of range for declared n", "n 3\n0 1\n1 5\n", "line 3: edge (1,5) out of range for declared n=3"},
		{"negative id", "0 -2\n", "line 1: negative vertex id"},
		{"negative id with header", "n 4\n-1 2\n", "line 2: negative vertex id"},
		{"malformed header", "n\n", "line 1: malformed header"},
		{"bad vertex count", "n x\n", "line 1: bad vertex count"},
		{"negative vertex count", "n -4\n", "line 1: bad vertex count"},
		{"three fields", "0 1 2\n", "line 1: expected \"u v\""},
		{"non-numeric vertex", "0 b\n", "line 1: bad vertex"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("ReadEdgeList(%q) accepted malformed input", tc.input)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestReadEdgeListStillAcceptsValid(t *testing.T) {
	cases := []struct {
		name      string
		input     string
		wantN     int
		wantEdges int
	}{
		{"header first", "n 4\n0 1\n2 3\n", 4, 2},
		{"no header", "0 1\n1 2\n", 3, 2},
		{"comments and blanks", "# hi\n\nn 3\n# mid\n0 2\n", 3, 1},
		{"isolated vertices", "n 10\n0 1\n", 10, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadEdgeList(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.wantN || g.M() != tc.wantEdges {
				t.Errorf("got n=%d m=%d, want n=%d m=%d", g.N(), g.M(), tc.wantN, tc.wantEdges)
			}
		})
	}
}

func TestDigest(t *testing.T) {
	a := graph.MustNew(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	// Same topology from reversed orientations and duplicated edges.
	b := graph.MustNew(5, [][2]int{{4, 3}, {2, 1}, {1, 0}, {0, 1}})
	if Digest(a) != Digest(b) {
		t.Error("digest differs across edge order/orientation of the same topology")
	}
	c := graph.MustNew(5, [][2]int{{0, 1}, {1, 2}, {3, 4}, {0, 4}})
	if Digest(a) == Digest(c) {
		t.Error("different topologies share a digest")
	}
	d := graph.MustNew(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if Digest(a) == Digest(d) {
		t.Error("different vertex counts share a digest")
	}
	if len(Digest(a)) != 64 {
		t.Errorf("digest length = %d, want 64 hex chars", len(Digest(a)))
	}
}

func TestDecodeSolveRequest(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // "" = accept
	}{
		{"ok inline", `{"graph":{"n":3,"edges":[[0,1]]}}`, ""},
		{"ok ref", `{"graph_ref":"udg-1k","algo":"kwcds","variant":"ln-lnln"}`, ""},
		{"not json", `{"graph_ref":`, "solve request"},
		{"unknown field", `{"graph_ref":"x","bogus":1}`, "bogus"},
		{"no source", `{"algo":"kw"}`, "exactly one of"},
		{"both sources", `{"graph":{"n":1,"edges":[]},"graph_ref":"x"}`, "exactly one of"},
		{"bad algo", `{"graph_ref":"x","algo":"dijkstra"}`, "unknown algo"},
		{"bad variant", `{"graph_ref":"x","variant":"sqrt"}`, "unknown variant"},
		{"kw2 with weights", `{"graph_ref":"x","algo":"kw2","weights":[1,2]}`, "not supported with algo"},
		{"trailing data", `{"graph_ref":"x"}{"graph_ref":"y"}`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeSolveRequest(strings.NewReader(tc.body))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected valid body: %v", err)
				}
				if req.Algo == "" {
					t.Error("algo default not applied")
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted malformed body %q", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
