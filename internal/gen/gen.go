// Package gen provides deterministic graph generators for every workload
// family used in the experiments: Erdős–Rényi G(n,p), unit-disk graphs (the
// ad-hoc network model motivating the paper), grids and tori, trees, random
// regular graphs, preferential attachment, and several structured families
// (stars, cliques, clique chains) that stress the ∆-dependent bounds.
//
// All generators are pure functions of their parameters and seed: the same
// call always returns the same graph.
package gen

import (
	"fmt"
	"math"

	"kwmds/internal/graph"
	"kwmds/internal/stats"
)

// finite reports whether x is neither NaN nor ±Inf. Parameter guards must
// use it explicitly: a plain `x < 0` check lets NaN through, because every
// comparison against NaN is false.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// GNP returns an Erdős–Rényi random graph G(n,p): every unordered pair is an
// edge independently with probability p. Uses geometric skipping, so the
// cost is proportional to the number of edges generated rather than n².
func GNP(n int, p float64, seed int64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: GNP n = %d < 0", n)
	}
	if !finite(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: GNP p = %v outside [0,1]", p)
	}
	rng := stats.NewRand(seed)
	var edges [][2]int
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
		return graph.New(n, edges)
	}
	if p > 0 {
		// Batagelj–Brandes geometric skipping over pairs (w, v), w < v.
		lnq := math.Log(1 - p)
		v, w := 1, -1
		for v < n {
			r := rng.Float64()
			w += 1 + int(math.Floor(math.Log(1-r)/lnq))
			for w >= v && v < n {
				w -= v
				v++
			}
			if v < n {
				edges = append(edges, [2]int{w, v})
			}
		}
	}
	return graph.New(n, edges)
}

// UnitDisk places n points uniformly in the unit square and connects points
// at Euclidean distance ≤ radius. This is the standard model of wireless
// ad-hoc networks from the paper's introduction. Implemented with a bucket
// grid so the cost is O(n + m).
func UnitDisk(n int, radius float64, seed int64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: UnitDisk n = %d < 0", n)
	}
	if !finite(radius) || radius < 0 {
		return nil, fmt.Errorf("gen: UnitDisk radius = %v outside [0, ∞)", radius)
	}
	g, _, err := UnitDiskPoints(n, radius, seed)
	return g, err
}

// Point is a 2-D coordinate in the unit square.
type Point struct{ X, Y float64 }

// UnitDiskPoints is UnitDisk but also returns the node coordinates, which
// the ad-hoc routing example uses for visualization.
func UnitDiskPoints(n int, radius float64, seed int64) (*graph.Graph, []Point, error) {
	if n < 0 || !finite(radius) || radius < 0 {
		return nil, nil, fmt.Errorf("gen: UnitDiskPoints invalid n=%d radius=%v", n, radius)
	}
	rng := stats.NewRand(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	g, err := UnitDiskFromPoints(pts, radius)
	if err != nil {
		return nil, nil, err
	}
	return g, pts, nil
}

// UnitDiskFromPoints builds the unit-disk graph of an explicit point set
// (edge ⇔ Euclidean distance ≤ radius) with a bucket grid in O(n + m).
// The mobility harness uses it to rebuild topologies as nodes move.
func UnitDiskFromPoints(pts []Point, radius float64) (*graph.Graph, error) {
	if !finite(radius) || radius < 0 {
		return nil, fmt.Errorf("gen: UnitDiskFromPoints radius = %v outside [0, ∞)", radius)
	}
	var edges [][2]int
	r2 := radius * radius
	cell := radius
	if cell <= 0 || cell > 1 {
		cell = 1
	}
	cols := int(1/cell) + 1
	buckets := make(map[int][]int)
	key := func(p Point) (int, int) { return int(p.X / cell), int(p.Y / cell) }
	for i, p := range pts {
		cx, cy := key(p)
		buckets[cx*cols*4+cy] = append(buckets[cx*cols*4+cy], i)
	}
	for i, p := range pts {
		cx, cy := key(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[(cx+dx)*cols*4+(cy+dy)] {
					if j <= i {
						continue
					}
					ddx, ddy := p.X-pts[j].X, p.Y-pts[j].Y
					if ddx*ddx+ddy*ddy <= r2 {
						edges = append(edges, [2]int{i, j})
					}
				}
			}
		}
	}
	return graph.New(len(pts), edges)
}

// Grid returns the rows×cols grid graph (4-neighborhood).
func Grid(rows, cols int) (*graph.Graph, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("gen: Grid %dx%d invalid", rows, cols)
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return graph.New(rows*cols, edges)
}

// Torus returns the rows×cols torus (grid with wraparound). Requires
// rows, cols ≥ 3 so that wrap edges are neither loops nor duplicates.
func Torus(rows, cols int) (*graph.Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("gen: Torus %dx%d needs both dims ≥ 3", rows, cols)
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges,
				[2]int{id(r, c), id(r, (c+1)%cols)},
				[2]int{id(r, c), id((r+1)%rows, c)})
		}
	}
	return graph.New(rows*cols, edges)
}

// RandomTree returns a uniformly-attached random tree: vertex v ≥ 1 attaches
// to a uniformly random earlier vertex.
func RandomTree(n int, seed int64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: RandomTree n = %d < 0", n)
	}
	rng := stats.NewRand(seed)
	edges := make([][2]int, 0, max(0, n-1))
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.IntN(v), v})
	}
	return graph.New(n, edges)
}

// RandomRegular returns a random d-regular graph on n vertices via the
// configuration (pairing) model followed by double-edge-swap repair: a
// uniform stub matching is drawn and any self-loops or parallel edges are
// removed by swapping their endpoints with randomly chosen good edges (a
// swap preserves all degrees). Requires n·d even and d < n. A plain
// retry-until-simple strategy would fail for d beyond ~6 — the probability
// that a uniform pairing is simple decays like e^{-(d²-1)/4}.
func RandomRegular(n, d int, seed int64) (*graph.Graph, error) {
	if n < 0 || d < 0 || d >= n || n*d%2 != 0 {
		return nil, fmt.Errorf("gen: RandomRegular n=%d d=%d invalid (need d<n, n·d even)", n, d)
	}
	if d == 0 {
		return graph.New(n, nil)
	}
	rng := stats.NewRand(seed)
	stubs := make([]int, n*d)
	for i := range stubs {
		stubs[i] = i / d
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	m := n * d / 2
	edges := make([][2]int, m)
	count := make(map[[2]int]int, m)
	norm := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for i := 0; i < m; i++ {
		edges[i] = [2]int{stubs[2*i], stubs[2*i+1]}
		count[norm(edges[i][0], edges[i][1])]++
	}
	bad := func(e [2]int) bool {
		return e[0] == e[1] || count[norm(e[0], e[1])] > 1
	}
	// Repair: swap a bad edge with a random edge; each successful swap
	// strictly reduces multiplicity mass, and failures only waste a draw,
	// so the loop converges quickly. The generous iteration cap turns a
	// (practically impossible) pathological instance into an error.
	maxTries := 200 * (m + 10)
	for try := 0; try < maxTries; try++ {
		badIdx := -1
		for i, e := range edges {
			if bad(e) {
				badIdx = i
				break
			}
		}
		if badIdx < 0 {
			return graph.New(n, edges)
		}
		j := rng.IntN(m)
		if j == badIdx {
			continue
		}
		a, b := edges[badIdx], edges[j]
		// Propose (a0,b1) and (b0,a1), or the crossed variant.
		na, nb := [2]int{a[0], b[1]}, [2]int{b[0], a[1]}
		if rng.IntN(2) == 0 {
			na, nb = [2]int{a[0], b[0]}, [2]int{a[1], b[1]}
		}
		if na[0] == na[1] || nb[0] == nb[1] {
			continue
		}
		// Remove the old pair, then check the new pair is simple.
		count[norm(a[0], a[1])]--
		count[norm(b[0], b[1])]--
		if count[norm(na[0], na[1])] > 0 || count[norm(nb[0], nb[1])] > 0 ||
			norm(na[0], na[1]) == norm(nb[0], nb[1]) {
			count[norm(a[0], a[1])]++
			count[norm(b[0], b[1])]++
			continue
		}
		count[norm(na[0], na[1])]++
		count[norm(nb[0], nb[1])]++
		edges[badIdx], edges[j] = na, nb
	}
	return nil, fmt.Errorf("gen: RandomRegular(n=%d, d=%d) repair did not converge", n, d)
}

// PrefAttach returns a Barabási–Albert preferential-attachment graph: it
// starts from a clique on m+1 vertices and every new vertex attaches to m
// distinct existing vertices chosen proportionally to degree.
func PrefAttach(n, m int, seed int64) (*graph.Graph, error) {
	if m < 1 || n < m+1 {
		return nil, fmt.Errorf("gen: PrefAttach n=%d m=%d invalid (need n ≥ m+1 ≥ 2)", n, m)
	}
	rng := stats.NewRand(seed)
	var edges [][2]int
	// Repeated-endpoints list implements degree-proportional sampling.
	var targets []int
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, [2]int{u, v})
			targets = append(targets, u, v)
		}
	}
	chosen := make(map[int]bool, m)
	picks := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		clear(chosen)
		picks = picks[:0]
		for len(picks) < m {
			u := targets[rng.IntN(len(targets))]
			if !chosen[u] {
				chosen[u] = true
				picks = append(picks, u) // insertion order: deterministic
			}
		}
		for _, u := range picks {
			edges = append(edges, [2]int{u, v})
			targets = append(targets, u, v)
		}
	}
	return graph.New(n, edges)
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: Star n = %d < 1", n)
	}
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return graph.New(n, edges)
}

// Clique returns the complete graph K_n.
func Clique(n int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: Clique n = %d < 0", n)
	}
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return graph.New(n, edges)
}

// Path returns the path graph P_n.
func Path(n int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: Path n = %d < 0", n)
	}
	edges := make([][2]int, 0, max(0, n-1))
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	return graph.New(n, edges)
}

// Cycle returns the cycle graph C_n (n ≥ 3).
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: Cycle n = %d < 3", n)
	}
	edges := make([][2]int, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
	}
	return graph.New(n, edges)
}

// CliqueChain returns `count` cliques of size `size` arranged in a chain,
// consecutive cliques joined by a single bridge edge. The optimum dominating
// set has exactly one vertex per clique, which makes approximation ratios
// easy to read off; the family stresses high-∆ regions connected by sparse
// cuts.
func CliqueChain(count, size int) (*graph.Graph, error) {
	if count < 1 || size < 1 {
		return nil, fmt.Errorf("gen: CliqueChain count=%d size=%d invalid", count, size)
	}
	if count > 1 && size < 2 {
		return nil, fmt.Errorf("gen: CliqueChain needs size ≥ 2 to place bridges")
	}
	var edges [][2]int
	for c := 0; c < count; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				edges = append(edges, [2]int{base + u, base + v})
			}
		}
		if c+1 < count {
			// Bridge from this clique's last vertex to next clique's first.
			edges = append(edges, [2]int{base + size - 1, base + size})
		}
	}
	return graph.New(count*size, edges)
}

// StarOfStars builds a two-level star: a root connected to `branches` hub
// vertices, each hub connected to `leaves` leaf vertices. With heavy hubs it
// exhibits the active-degree cascade of the paper's Figure 1.
func StarOfStars(branches, leaves int) (*graph.Graph, error) {
	if branches < 0 || leaves < 0 {
		return nil, fmt.Errorf("gen: StarOfStars branches=%d leaves=%d invalid", branches, leaves)
	}
	n := 1 + branches*(1+leaves)
	var edges [][2]int
	for b := 0; b < branches; b++ {
		hub := 1 + b*(1+leaves)
		edges = append(edges, [2]int{0, hub})
		for l := 1; l <= leaves; l++ {
			edges = append(edges, [2]int{hub, hub + l})
		}
	}
	return graph.New(n, edges)
}
