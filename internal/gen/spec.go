package gen

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"kwmds/internal/graph"
)

// FromSpec generates a graph from a colon-separated family spec:
//
//	udg:<n>:<radius>:<seed>    unit-disk graph in the unit square
//	gnp:<n>:<p>:<seed>         Erdős–Rényi G(n,p)
//	grid:<rows>:<cols>         grid graph
//	tree:<n>:<seed>            uniformly-attached random tree
//	ba:<n>:<m>:<seed>          Barabási–Albert preferential attachment
//	                           (m edges per arriving vertex; heavy-tailed
//	                           degrees — the cache-adversarial workload)
//
// The grammar is shared by every surface that accepts generated
// topologies: the CLI's gen: graph sources, the serve subsystem's -preload
// entries, and kwbench scenario specs. The generators size their arrays by
// the vertex count before graph.New sees it, so a count past graph.New's
// bound (math.MaxInt32) is refused here, before any generator runs.
func FromSpec(spec string) (*graph.Graph, error) {
	parts := strings.Split(spec, ":")
	fail := func() (*graph.Graph, error) {
		return nil, fmt.Errorf("bad graph spec %q (want udg:n:radius:seed, gnp:n:p:seed, grid:rows:cols, tree:n:seed, or ba:n:m:seed)", spec)
	}
	tooBig := func() (*graph.Graph, error) {
		return nil, fmt.Errorf("graph spec %q: more vertices than the limit of %d (math.MaxInt32)", spec, math.MaxInt32)
	}
	atoi := func(s string) (int, bool) {
		v, err := strconv.Atoi(s)
		return v, err == nil
	}
	atof := func(s string) (float64, bool) {
		v, err := strconv.ParseFloat(s, 64)
		return v, err == nil
	}
	switch parts[0] {
	case "udg", "gnp":
		if len(parts) != 4 {
			return fail()
		}
		n, ok1 := atoi(parts[1])
		p, ok2 := atof(parts[2])
		seed, ok3 := atoi(parts[3])
		if !ok1 || !ok2 || !ok3 {
			return fail()
		}
		if n > math.MaxInt32 {
			return tooBig()
		}
		if parts[0] == "udg" {
			return UnitDisk(n, p, int64(seed))
		}
		return GNP(n, p, int64(seed))
	case "grid":
		if len(parts) != 3 {
			return fail()
		}
		rows, ok1 := atoi(parts[1])
		cols, ok2 := atoi(parts[2])
		if !ok1 || !ok2 {
			return fail()
		}
		if rows > 0 && cols > math.MaxInt32/rows {
			return tooBig()
		}
		return Grid(rows, cols)
	case "tree":
		if len(parts) != 3 {
			return fail()
		}
		n, ok1 := atoi(parts[1])
		seed, ok2 := atoi(parts[2])
		if !ok1 || !ok2 {
			return fail()
		}
		if n > math.MaxInt32 {
			return tooBig()
		}
		return RandomTree(n, int64(seed))
	case "ba":
		if len(parts) != 4 {
			return fail()
		}
		n, ok1 := atoi(parts[1])
		m, ok2 := atoi(parts[2])
		seed, ok3 := atoi(parts[3])
		if !ok1 || !ok2 || !ok3 {
			return fail()
		}
		if n > math.MaxInt32 {
			return tooBig()
		}
		return PrefAttach(n, m, int64(seed))
	}
	return fail()
}
