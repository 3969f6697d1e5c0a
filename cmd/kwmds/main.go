// Command kwmds runs a dominating set algorithm on a graph read from a
// file (or stdin) in the plain edge-list format and prints the resulting
// set together with quality and communication statistics. With the serve
// subcommand it instead runs as a long-lived HTTP JSON service whose
// preloaded graphs are mutable through POST /v1/graphs/{name}/mutate
// (epoch-batched edge/vertex/weight mutations via internal/dyngraph);
// with the bench subcommand it executes declarative benchmark scenarios
// (internal/kwbench) and merges the results into BENCH_kwbench.json.
//
// Usage:
//
//	kwmds -graph network.edges -algo kw -k 3 -seed 7
//	graphgen -family udg -n 500 -r 0.08 | kwmds -algo greedy
//	kwmds -graph gen:udg:500:0.08:1 -algo kwcds
//	kwmds serve -addr :8080 -workers 8 -preload udg-10k=gen:udg:10000:0.02:1
//	kwmds serve -addr :8080 -workers 4 -max-queue 64 -queue-timeout 250ms -preload g=gen:udg:10000:0.02:1
//	kwmds convert -in network.edges -out network.kwcsr
//	kwmds serve -preload big=network.kwcsr
//	kwmds bench -scenario scenarios/serve-cached.json
//	kwmds bench -scenario scenarios/solve-skew-ba100k.toml -cpuprofile cpu.out
//	kwmds bench -validate BENCH_kwbench.json
//
// Algorithms: kw (Algorithm 3 + rounding, the paper's pipeline), kw2
// (Algorithm 2 + rounding, assumes global ∆), kwcds (kw + connected
// dominating set), frac (LP stage only), greedy, jrs, wuli, mis, trivial,
// exact (small graphs only). The implementation lives in internal/cli so
// it is fully unit-tested; the HTTP service lives in internal/server and
// the benchmark harness in internal/kwbench (see docs/ARCHITECTURE.md and
// docs/BENCHMARKS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"kwmds/internal/cli"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "kwmds serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		if err := benchMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "kwmds bench:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		if err := convertMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "kwmds convert:", err)
			os.Exit(1)
		}
		return
	}

	var cfg cli.Config
	flag.StringVar(&cfg.GraphPath, "graph", "-", "edge-list file ('-' for stdin, 'gen:…' to generate)")
	flag.StringVar(&cfg.Algo, "algo", "kw", "kw|kw2|kwcds|frac|greedy|jrs|wuli|mis|trivial|exact")
	flag.IntVar(&cfg.K, "k", 0, "trade-off parameter (0 = log ∆)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.BoolVar(&cfg.LnMinusLn, "lnlnln", false, "use the ln−lnln rounding variant")
	flag.BoolVar(&cfg.Members, "members", false, "print the chosen vertex ids")
	flag.BoolVar(&cfg.Sequential, "sequential", false, "run the fastpath solver instead of the simulation (same output, no message stats)")
	flag.Parse()

	if err := cli.Run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kwmds:", err)
		os.Exit(1)
	}
}

func serveMain(args []string) error {
	var cfg cli.ServeConfig
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 0, "max concurrent pipeline runs (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.CacheEntries, "cache", 0, "LRU result-cache capacity (0 = default, -1 disables)")
	fs.Func("preload", "name=file or name=gen:spec, repeatable", func(v string) error {
		cfg.Preload = append(cfg.Preload, v)
		return nil
	})
	fs.IntVar(&cfg.MaxQueue, "max-queue", 0, "admission queue bound: solves beyond workers running + this many waiting are shed with 429 (0 = unbounded)")
	fs.DurationVar(&cfg.QueueTimeout, "queue-timeout", 0, "max wait for a worker slot before an admitted solve is shed with 429 (0 = no timeout)")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "make preloaded graphs durable: WAL + snapshots under this directory, recovered on restart")
	fs.IntVar(&cfg.SnapshotEpochs, "snapshot-epochs", 0, "compact a durable graph's WAL into a snapshot every N epochs (0 = default 128, -1 disables)")
	fs.Int64Var(&cfg.SnapshotBytes, "snapshot-bytes", 0, "compact a durable graph's WAL once it passes this size (0 = default 4 MiB, -1 disables)")
	fs.StringVar(&cfg.PprofAddr, "pprof", "", "serve /debug/pprof on this address (off when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ready := make(chan string, 1)
	go func() { fmt.Fprintln(os.Stderr, "kwmds serve: listening on", <-ready) }()
	return cli.RunServe(cfg, ready)
}

func convertMain(args []string) error {
	var cfg cli.ConvertConfig
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	fs.StringVar(&cfg.In, "in", "", "input graph: edge-list file, '-' (stdin), 'gen:…' spec, or .kwcsr container")
	fs.StringVar(&cfg.Out, "out", "", "output path (.kwcsr suffix selects the binary CSR container, anything else edge-list text)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return cli.RunConvert(cfg, os.Stdout)
}

func benchMain(args []string) error {
	var cfg cli.BenchConfig
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.Func("scenario", "scenario spec file (.json or .toml), repeatable", func(v string) error {
		cfg.Scenarios = append(cfg.Scenarios, v)
		return nil
	})
	fs.StringVar(&cfg.Out, "out", "BENCH_kwbench.json", "unified report path (results merge by scenario name)")
	fs.BoolVar(&cfg.Quick, "quick", false, "shrink the load for a smoke run (graphs unchanged)")
	fs.StringVar(&cfg.Validate, "validate", "", "validate an existing report file against the kwbench schema and exit")
	fs.StringVar(&cfg.CPUProfile, "cpuprofile", "", "write a CPU profile covering the scenario runs to this file")
	fs.StringVar(&cfg.MemProfile, "memprofile", "", "write a heap profile after the final scenario to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return cli.RunBench(cfg, os.Stdout)
}
