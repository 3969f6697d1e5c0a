package kwmds

import (
	"io"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// Graph is an immutable simple undirected graph in compressed sparse row
// form. See NewGraph and the generator functions for construction, and the
// methods on the type (N, M, Degree, Neighbors, MaxDegree, IsDominatingSet,
// BFS, Components, Diameter, …) for inspection.
type Graph = graph.Graph

// Point is a 2-D coordinate in the unit square, as returned by
// UnitDiskPoints.
type Point = gen.Point

// NewGraph builds a graph with n vertices from an edge list. Edges may
// appear in either orientation; duplicates are merged; self-loops and
// out-of-range endpoints are rejected.
func NewGraph(n int, edges [][2]int) (*Graph, error) { return graph.New(n, edges) }

// SetSize counts the members of a vertex set given as a boolean vector.
func SetSize(inDS []bool) int { return graph.SetSize(inDS) }

// SetMembers returns the indices of the members of a vertex set.
func SetMembers(inDS []bool) []int { return graph.Members(inDS) }

// ReadGraph parses the plain edge-list format (optional "n <count>" header,
// one "u v" pair per line, '#' comments).
func ReadGraph(r io.Reader) (*Graph, error) { return graphio.ReadEdgeList(r) }

// WriteGraph writes g in the plain edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graphio.WriteEdgeList(w, g) }

// GNP returns an Erdős–Rényi random graph G(n,p).
func GNP(n int, p float64, seed int64) (*Graph, error) { return gen.GNP(n, p, seed) }

// UnitDisk places n points uniformly in the unit square and connects pairs
// at distance ≤ radius — the wireless ad-hoc network model from the paper's
// introduction.
func UnitDisk(n int, radius float64, seed int64) (*Graph, error) {
	return gen.UnitDisk(n, radius, seed)
}

// UnitDiskPoints is UnitDisk but also returns the node coordinates.
func UnitDiskPoints(n int, radius float64, seed int64) (*Graph, []Point, error) {
	return gen.UnitDiskPoints(n, radius, seed)
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) (*Graph, error) { return gen.Grid(rows, cols) }

// Torus returns the rows×cols torus graph (both dims ≥ 3).
func Torus(rows, cols int) (*Graph, error) { return gen.Torus(rows, cols) }

// RandomTree returns a uniformly-attached random tree on n vertices.
func RandomTree(n int, seed int64) (*Graph, error) { return gen.RandomTree(n, seed) }

// RandomRegular returns a random d-regular graph (n·d even, d < n).
func RandomRegular(n, d int, seed int64) (*Graph, error) { return gen.RandomRegular(n, d, seed) }

// PrefAttach returns a Barabási–Albert preferential attachment graph where
// each new vertex attaches to m existing vertices.
func PrefAttach(n, m int, seed int64) (*Graph, error) { return gen.PrefAttach(n, m, seed) }

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) (*Graph, error) { return gen.Star(n) }

// Clique returns the complete graph K_n.
func Clique(n int) (*Graph, error) { return gen.Clique(n) }

// Path returns the path graph P_n.
func Path(n int) (*Graph, error) { return gen.Path(n) }

// Cycle returns the cycle graph C_n (n ≥ 3).
func Cycle(n int) (*Graph, error) { return gen.Cycle(n) }

// CliqueChain returns `count` cliques of size `size` joined in a chain by
// single bridge edges; the optimum dominating set has one vertex per clique.
func CliqueChain(count, size int) (*Graph, error) { return gen.CliqueChain(count, size) }
