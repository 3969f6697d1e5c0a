package kwbench

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseTOMLValues(t *testing.T) {
	doc := `
# full value-type coverage
title = "hello \"world\"\n"
count = 1_000
rate = 2.5
neg = -7
on = true
off = false
list = [1, 2, 3]
mixed = ["a", 1, true]
empty = []

[table]
nested = 4

[[rows]]
id = 1

[[rows]]
id = 2
`
	got, err := parseTOML([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"title": "hello \"world\"\n",
		"count": int64(1000),
		"rate":  2.5,
		"neg":   int64(-7),
		"on":    true,
		"off":   false,
		"list":  []any{int64(1), int64(2), int64(3)},
		"mixed": []any{"a", int64(1), true},
		"empty": []any{},
		"table": map[string]any{"nested": int64(4)},
		"rows": []any{
			map[string]any{"id": int64(1)},
			map[string]any{"id": int64(2)},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTOML mismatch:\ngot  %#v\nwant %#v", got, want)
	}
}

// TestParseTOMLDottedKeys pins the refusal of the dotted forms: a dotted
// key and a dotted table header each fail at their own line.
func TestParseTOMLDottedKeys(t *testing.T) {
	for _, doc := range []string{"k = 1\na.b.c = 1\n", "k = 1\n[a.b]\n"} {
		_, err := parseTOML([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "a.b") {
			t.Errorf("parseTOML(%q): err = %v, want a refusal naming line 2 and the dotted name", doc, err)
		}
	}
}

func TestParseTOMLErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"bare garbage", "what is this", "expected key = value"},
		{"unterminated string", `k = "abc`, "unterminated string"},
		{"unterminated array", "k = [1, 2", "unterminated array"},
		{"unterminated inline", "k = { a = 1", "inline tables are not supported"},
		{"inline table", "k = { a = 1 }", "inline tables are not supported"},
		{"quoted key", `"k" = 1`, "not a bare lowercase key"},
		{"capital key", "ops = 5\nOps = 50", "not a bare lowercase key"},
		{"table given twice", "[closed]\nops = 1\n[closed]\nconcurrency = 1", `table "closed" is already defined`},
		{"table over array", "[[graphs]]\ntier = \"udg-500\"\n[graphs]", `table "graphs" is already defined`},
		{"array over table", "[mix]\n[[mix]]", `key "mix" is not an array of tables`},
		{"duplicate key", "k = 1\nk = 2", "duplicate key"},
		{"bad value", "k = 12xy", "unsupported value"},
		{"literal string", "k = 'abc'", "not supported"},
		{"bad escape", `k = "\q"`, "unsupported escape"},
		{"trailing data", `k = [1] junk`, "trailing data"},
		{"bad table header", "[unclosed\nk = 1", "malformed table header"},
		{"missing value", "k =", "missing value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseTOML([]byte(tc.doc))
			if err == nil {
				t.Fatalf("parseTOML accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "line") {
				t.Fatalf("error %q lacks a line number", err)
			}
		})
	}
}

func TestParseTOMLCommentsRespectStrings(t *testing.T) {
	got, err := parseTOML([]byte(`k = "a # not a comment" # a comment`))
	if err != nil {
		t.Fatal(err)
	}
	if got["k"] != "a # not a comment" {
		t.Fatalf("got %q", got["k"])
	}
}
