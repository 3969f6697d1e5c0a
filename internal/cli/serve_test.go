package cli

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadGraphRefusesOversizedSpec: the -graph and -preload path refuses
// a gen: spec past graph.New's vertex bound, naming the bound.
func TestLoadGraphRefusesOversizedSpec(t *testing.T) {
	_, err := LoadGraph("gen:udg:3000000000:0.1:1", nil)
	if err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("LoadGraph(gen:udg:3000000000:0.1:1) = %v, want the vertex bound named", err)
	}
}

func TestLoadGraphSources(t *testing.T) {
	// gen: spec through the same entry the -graph flag uses.
	g, err := LoadGraph("gen:grid:3:3", nil)
	if err != nil || g.N() != 9 {
		t.Fatalf("LoadGraph(gen:grid:3:3) = %v, %v", g, err)
	}
	// stdin
	g, err = LoadGraph("-", strings.NewReader("n 4\n0 1\n2 3\n"))
	if err != nil || g.N() != 4 {
		t.Fatalf("LoadGraph(-) = %v, %v", g, err)
	}
	// file
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := os.WriteFile(path, []byte("n 3\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err = LoadGraph(path, nil)
	if err != nil || g.N() != 3 || g.M() != 1 {
		t.Fatalf("LoadGraph(file) = %v, %v", g, err)
	}
}

func TestBuildServer(t *testing.T) {
	// Bad preload entries are rejected with context.
	for _, bad := range []string{"noequals", "=gen:grid:2:2", "name=", "a=gen:bogus:1"} {
		if _, _, err := BuildServer(ServeConfig{Preload: []string{bad}}); err == nil {
			t.Errorf("BuildServer accepted preload %q", bad)
		}
	}
	if _, _, err := BuildServer(ServeConfig{Preload: []string{"a=gen:grid:2:2", "a=gen:grid:3:3"}}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate preload name not rejected: %v", err)
	}

	// A good config serves its preloaded graph end to end.
	srv, unmap, err := BuildServer(ServeConfig{Preload: []string{"grid=gen:grid:5:5"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(unmap)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"graph_ref":"grid","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sr struct {
		Size int `json:"size"`
		N    int `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.N != 25 || sr.Size < 1 {
		t.Errorf("solve over preloaded grid = %+v", sr)
	}
}
