package baseline

import "kwmds/internal/graph"

// Greedy computes the classical greedy dominating set: repeatedly add the
// vertex covering the most still-uncovered vertices (its "span"), until all
// are covered. Ties break toward smaller vertex ids. The approximation
// ratio is H(∆+1) ≤ ln(∆+1)+1 [Chvátal 79; Slavík 96] — the benchmark the
// paper's Theorem 3/6 bounds are calibrated against.
//
// The implementation uses lazy bucket queues: every span decrement pushes
// the vertex into its new bucket and stale entries are skipped on pop,
// giving O(n + m) total work beyond the pops.
func Greedy(g *graph.Graph) *Result {
	n := g.N()
	inDS := make([]bool, n)
	if n == 0 {
		return &Result{InDS: inDS}
	}
	covered := make([]bool, n)
	span := make([]int, n) // uncovered vertices in N[v]
	maxSpan := 0
	for v := 0; v < n; v++ {
		span[v] = g.Degree(v) + 1
		if span[v] > maxSpan {
			maxSpan = span[v]
		}
	}
	buckets := make([][]int32, maxSpan+1)
	for v := n - 1; v >= 0; v-- { // reversed so pops prefer small ids
		buckets[span[v]] = append(buckets[span[v]], int32(v))
	}
	size := 0
	remaining := n
	cur := maxSpan
	cover := func(u int) {
		if covered[u] {
			return
		}
		covered[u] = true
		remaining--
		// Every potential dominator of u loses one span unit.
		if span[u] > 0 {
			span[u]--
			buckets[span[u]] = append(buckets[span[u]], int32(u))
		}
		for _, w := range g.Neighbors(u) {
			if span[w] > 0 {
				span[w]--
				buckets[span[w]] = append(buckets[span[w]], int32(w))
			}
		}
	}
	for remaining > 0 {
		for len(buckets[cur]) == 0 {
			cur--
		}
		b := buckets[cur]
		v := int(b[len(b)-1])
		buckets[cur] = b[:len(b)-1]
		if inDS[v] || span[v] != cur {
			continue // stale entry
		}
		inDS[v] = true
		size++
		cover(v)
		for _, u := range g.Neighbors(v) {
			cover(int(u))
		}
	}
	return &Result{InDS: inDS, Size: size}
}
