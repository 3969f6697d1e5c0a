package graph

// This file contains traversal and structural operations: BFS, connected
// components, diameter, and degree statistics. They are used by generators
// (connectivity checks), baselines (Wu–Li connectivity fallback) and the
// experiment harness (workload characterization).

// BFS returns the array of hop distances from src (-1 for unreachable
// vertices).
func (g *Graph) BFS(src int) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Components labels each vertex with a component id in [0, count) and
// returns the labels and the component count. Ids are assigned in order of
// the smallest vertex in each component.
func (g *Graph) Components() (comp []int32, count int) {
	n := g.N()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[v] = id
		queue = append(queue[:0], int32(v))
		for len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(int(w)) {
				if comp[u] < 0 {
					comp[u] = id
					queue = append(queue, u)
				}
			}
		}
	}
	return comp, count
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	_, c := g.Components()
	return c == 1
}

// Diameter computes the exact diameter by running BFS from every vertex.
// It returns -1 for a disconnected or empty graph. O(n·m); intended for
// small and medium graphs.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFS(v) {
			if d < 0 {
				return -1
			}
			if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam
}

// Subgraph returns the induced subgraph on the given vertices together with
// the mapping newID[i] = original vertex of new vertex i. Vertices not in
// the list are dropped; duplicate entries are an error via New.
func (g *Graph) Subgraph(vertices []int) (*Graph, []int) {
	idx := make(map[int]int, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		idx[v] = i
		orig[i] = v
	}
	var edges [][2]int
	for i, v := range vertices {
		for _, u := range g.Neighbors(v) {
			j, ok := idx[int(u)]
			if ok && i < j {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	sub := MustNew(len(vertices), edges)
	return sub, orig
}
