// Command experiments regenerates every experiment table in EXPERIMENTS.md
// (ids T1–T9, F1 and L1, registered in internal/bench/registry.go).
//
// Usage:
//
//	experiments                 # run everything at full scale (markdown)
//	experiments -exp T4 -quick  # one experiment at reduced scale
//	experiments -format plain   # aligned text instead of markdown
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kwmds/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id (T1..T9, F1, L1) or 'all'")
		quick  = flag.Bool("quick", false, "reduced workload sizes and trial counts")
		format = flag.String("format", "md", "md|plain")
		trials = flag.Int("trials", 0, "override trial count (0 = default)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}

	ran := 0
	for _, r := range bench.Runners() {
		if *exp != "all" && !strings.EqualFold(*exp, r.ID) {
			continue
		}
		ran++
		start := time.Now()
		tables := r.Run(cfg)
		fmt.Printf("<!-- %s: %s (%.1fs) -->\n\n", r.ID, r.Description, time.Since(start).Seconds())
		for _, t := range tables {
			if *format == "plain" {
				fmt.Println(t.Plain())
			} else {
				fmt.Println(t.Markdown())
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment id %q\n", *exp)
		os.Exit(1)
	}
}
