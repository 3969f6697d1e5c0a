// Package graphio reads and writes graphs: a plain edge-list text format
// (an optional header line "n <count>", one "u v" pair per line, '#'
// comments and blank lines ignored), the kwcsr binary container
// (binary.go), and the serve API's JSON wire types (codec.go).
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kwmds/internal/graph"
)

// WriteEdgeList writes g in the plain text format, including the "n" header
// so isolated vertices survive a round trip.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the plain text format. The "n" header, when present,
// must appear exactly once and before any edge; vertices referenced by
// edges must fit in the declared count. Without a header, n is inferred as
// max vertex id + 1. Malformed lines are rejected with their line number.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	n := -1
	var edges [][2]int
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if n >= 0 {
				return nil, fmt.Errorf("graphio: line %d: duplicate \"n\" header (already declared n=%d)", lineNo, n)
			}
			if len(edges) > 0 {
				return nil, fmt.Errorf("graphio: line %d: \"n\" header after %d edge lines (header must come first)", lineNo, len(edges))
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graphio: line %d: malformed header %q", lineNo, line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("graphio: line %d: bad vertex count %q", lineNo, fields[1])
			}
			n = v
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graphio: line %d: expected \"u v\", got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad vertex %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad vertex %q", lineNo, fields[1])
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graphio: line %d: negative vertex id in edge (%d,%d)", lineNo, u, v)
		}
		if n >= 0 && (u >= n || v >= n) {
			return nil, fmt.Errorf("graphio: line %d: edge (%d,%d) out of range for declared n=%d", lineNo, u, v, n)
		}
		edges = append(edges, [2]int{u, v})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: read: %w", err)
	}
	if n < 0 {
		n = maxID + 1
	}
	g, err := graph.New(n, edges)
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return g, nil
}

// JSONGraph is the inline graph of a solve request body: vertex count,
// edge list, and optional metadata (generator name, parameters, seed, …)
// that the wire accepts and the solver ignores.
type JSONGraph struct {
	N        int               `json:"n"`
	Edges    [][2]int          `json:"edges"`
	Metadata map[string]string `json:"metadata,omitempty"`
}
