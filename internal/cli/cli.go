// Package cli implements the kwmds command-line tool: graph loading,
// algorithm dispatch, verification and report printing. It lives apart from
// the main package so the whole command surface is unit-testable with
// injected readers and writers.
package cli

import (
	"fmt"
	"io"
	"os"
	"strings"

	"kwmds"
	"kwmds/internal/baseline"
	"kwmds/internal/exact"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/lp"
)

// Config is the parsed command line of cmd/kwmds.
type Config struct {
	GraphPath  string // file path, "-" = Stdin, or a "gen:" spec (see LoadGraph)
	Algo       string // kw|kw2|kwcds|frac|greedy|jrs|wuli|mis|trivial|exact
	K          int
	Seed       int64
	LnMinusLn  bool // use the ln−lnln rounding variant
	Members    bool // print the chosen vertex ids
	Sequential bool

	Stdin io.Reader // defaults to os.Stdin
}

// Run executes the tool and writes its report to w.
func Run(cfg Config, w io.Writer) error {
	g, err := loadGraph(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph: n=%d m=%d Δ=%d\n", g.N(), g.M(), g.MaxDegree())
	lb := lp.DegreeLowerBound(g)
	fmt.Fprintf(w, "lemma-1 lower bound on |DS_OPT|: %.3f\n", lb)

	inDS, done, err := dispatch(cfg, g, w)
	if err != nil || done {
		return err
	}
	if !g.IsDominatingSet(inDS) {
		return fmt.Errorf("internal error: output is not a dominating set")
	}
	if lb > 0 {
		fmt.Fprintf(w, "verified: dominating ✓  ratio vs lemma-1 bound: %.2f\n",
			float64(graph.SetSize(inDS))/lb)
	} else {
		fmt.Fprintln(w, "verified: dominating ✓")
	}
	if cfg.Members {
		fmt.Fprintln(w, "members:", graph.Members(inDS))
	}
	return nil
}

// dispatch runs the selected algorithm; done means the branch already
// printed everything (no common verification applies).
func dispatch(cfg Config, g *kwmds.Graph, w io.Writer) (inDS []bool, done bool, err error) {
	switch cfg.Algo {
	case "kw", "kw2":
		opts := kwmds.Options{K: cfg.K, Seed: cfg.Seed, KnownDelta: cfg.Algo == "kw2", Sequential: cfg.Sequential}
		if cfg.LnMinusLn {
			opts.Variant = kwmds.VariantLnMinusLnLn
		}
		res, err := kwmds.DominatingSet(g, opts)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "algorithm: %s (k=%d)\n", cfg.Algo, res.K)
		fmt.Fprintf(w, "size: %d (random joins %d, fix-up joins %d)\n",
			res.Size, res.JoinedRandom, res.JoinedFixup)
		fmt.Fprintf(w, "LP objective: %.3f\n", res.LPObjective)
		if !cfg.Sequential {
			fmt.Fprintf(w, "rounds: %d  messages: %d  bits: %d\n", res.Rounds, res.Messages, res.Bits)
		}
		return res.InDS, false, nil
	case "kwcds":
		opts := kwmds.Options{K: cfg.K, Seed: cfg.Seed, Sequential: cfg.Sequential}
		if cfg.LnMinusLn {
			opts.Variant = kwmds.VariantLnMinusLnLn
		}
		res, err := kwmds.ConnectedDominatingSet(g, opts)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "algorithm: kw + connect (k=%d)\n", res.K)
		fmt.Fprintf(w, "size: %d (%d connectors)\n", res.Size, res.Connectors)
		fmt.Fprintf(w, "connected: %v\n", kwmds.IsConnectedDominatingSet(g, res.InDS))
		return res.InDS, false, nil
	case "frac":
		opts := kwmds.Options{K: cfg.K, Seed: cfg.Seed, Sequential: cfg.Sequential}
		res, err := kwmds.FractionalDominatingSet(g, opts)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "algorithm: fractional (k=%d)\n", res.K)
		fmt.Fprintf(w, "objective: %.3f (guarantee: ≤ %.2f × LP_OPT)\n", res.Objective, res.Bound)
		if !cfg.Sequential {
			fmt.Fprintf(w, "rounds: %d  messages: %d  bits: %d\n", res.Rounds, res.Messages, res.Bits)
		}
		return nil, true, nil
	case "greedy":
		res := baseline.Greedy(g)
		fmt.Fprintf(w, "algorithm: greedy (sequential)\nsize: %d\n", res.Size)
		return res.InDS, false, nil
	case "jrs":
		res, err := baseline.JRS(g, cfg.Seed)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "algorithm: jrs\nsize: %d\nrounds: %d  messages: %d\n",
			res.Size, res.Rounds, res.Messages)
		return res.InDS, false, nil
	case "wuli":
		res, err := baseline.WuLi(g)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "algorithm: wu-li\nsize: %d (marked %d, fallback %d)\nrounds: %d\n",
			res.Size, graph.SetSize(res.Marked), res.FallbackJoins, res.Rounds)
		return res.InDS, false, nil
	case "mis":
		res, err := baseline.LubyMIS(g, cfg.Seed)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "algorithm: luby-mis\nsize: %d\nrounds: %d\n", res.Size, res.Rounds)
		return res.InDS, false, nil
	case "trivial":
		res := baseline.Trivial(g)
		fmt.Fprintf(w, "algorithm: trivial\nsize: %d\n", res.Size)
		return res.InDS, false, nil
	case "exact":
		ds, err := exact.MinimumDominatingSet(g)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "algorithm: exact branch-and-bound\nsize: %d (optimal)\n", graph.SetSize(ds))
		return ds, false, nil
	default:
		return nil, false, fmt.Errorf("unknown algorithm %q", cfg.Algo)
	}
}

func loadGraph(cfg Config) (*kwmds.Graph, error) {
	return LoadGraph(cfg.GraphPath, cfg.Stdin)
}

// LoadGraph resolves a -graph argument: "-" reads the edge-list format from
// stdin, "gen:<family>:<args>" generates a graph in-process (the grammar
// of gen.FromSpec), a path ending in ".kwcsr" is a binary CSR container
// (zero-parse; see internal/graphio and `kwmds convert`), anything else is
// an edge-list file path. The serve subsystem's -preload flag resolves its
// specs through the same function so both command surfaces accept identical
// graph sources. A container's optional weight vector is ignored here:
// weights enter solves per request, not per topology.
func LoadGraph(path string, stdin io.Reader) (*kwmds.Graph, error) {
	if path == "-" {
		if stdin == nil {
			stdin = os.Stdin
		}
		return graphio.ReadEdgeList(stdin)
	}
	if spec, ok := strings.CutPrefix(path, "gen:"); ok {
		return gen.FromSpec(spec)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".kwcsr") {
		g, _, err := graphio.ReadBinaryCSR(f)
		return g, err
	}
	return graphio.ReadEdgeList(f)
}
