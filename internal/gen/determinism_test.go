package gen

import (
	"testing"

	"kwmds/internal/graph"
)

// Every generator must be a pure function of (parameters, seed): identical
// calls yield identical edge lists. This guards against accidental map-
// iteration nondeterminism (a bug class this very test caught in
// PrefAttach).
func TestAllGeneratorsDeterministic(t *testing.T) {
	makers := map[string]func() (*graph.Graph, error){
		"gnp":         func() (*graph.Graph, error) { return GNP(200, 0.05, 9) },
		"udg":         func() (*graph.Graph, error) { return UnitDisk(200, 0.12, 9) },
		"tree":        func() (*graph.Graph, error) { return RandomTree(200, 9) },
		"regular":     func() (*graph.Graph, error) { return RandomRegular(100, 4, 9) },
		"ba":          func() (*graph.Graph, error) { return PrefAttach(200, 3, 9) },
		"grid":        func() (*graph.Graph, error) { return Grid(10, 20) },
		"torus":       func() (*graph.Graph, error) { return Torus(8, 9) },
		"star":        func() (*graph.Graph, error) { return Star(50) },
		"clique":      func() (*graph.Graph, error) { return Clique(20) },
		"path":        func() (*graph.Graph, error) { return Path(50) },
		"cycle":       func() (*graph.Graph, error) { return Cycle(50) },
		"cliquechain": func() (*graph.Graph, error) { return CliqueChain(5, 8) },
		"starofstars": func() (*graph.Graph, error) { return StarOfStars(5, 10) },
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			a, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			b, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			ae, be := a.Edges(), b.Edges()
			if len(ae) != len(be) {
				t.Fatalf("edge counts differ across identical calls: %d vs %d", len(ae), len(be))
			}
			for i := range ae {
				if ae[i] != be[i] {
					t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
				}
			}
		})
	}
}
