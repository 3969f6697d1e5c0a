package cli

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"kwmds/internal/kwbench"
)

// BenchConfig is the parsed command line of `kwmds bench`.
type BenchConfig struct {
	// Scenarios are the spec files to run, in order.
	Scenarios []string
	// Out is the unified report path results merge into.
	Out string
	// Quick shrinks the load for smoke runs (the graphs are untouched).
	Quick bool
	// Validate, when set, validates an existing report file against the
	// kwbench schema instead of running anything.
	Validate string
	// CPUProfile / MemProfile write runtime/pprof profiles covering the
	// scenario runs (the heap profile is written after the final run).
	CPUProfile string
	MemProfile string
}

// RunBench executes `kwmds bench`: validate-only mode, or load + run every
// scenario and merge the results into the unified report.
func RunBench(cfg BenchConfig, w io.Writer) error {
	if cfg.Validate != "" {
		if err := kwbench.ValidateReportFile(cfg.Validate); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: valid kwbench report (schema %d)\n", cfg.Validate, kwbench.SchemaVersion)
		return nil
	}
	if len(cfg.Scenarios) == 0 {
		return fmt.Errorf("no scenarios: pass at least one -scenario file (or -validate)")
	}
	if cfg.Out == "" {
		cfg.Out = "BENCH_kwbench.json"
	}
	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.MemProfile != "" {
		defer func() {
			f, err := os.Create(cfg.MemProfile)
			if err != nil {
				fmt.Fprintf(w, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(w, "memprofile: %v\n", err)
			}
		}()
	}
	var results []kwbench.ScenarioResult
	for _, path := range cfg.Scenarios {
		sc, err := kwbench.Load(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "running %-28s driver=%-11s ...\n", sc.Name, sc.Driver)
		res, err := kwbench.Run(sc, kwbench.RunOptions{Quick: cfg.Quick})
		if err != nil {
			return err
		}
		printResult(w, res)
		results = append(results, *res)
	}
	if _, err := kwbench.MergeInto(cfg.Out, results); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d scenario(s) merged)\n", cfg.Out, len(results))
	// The SLO gate fires after the report is written: a violated bound
	// exits non-zero, but the measurements that show the violation are
	// already on disk for inspection.
	var violated int
	for _, r := range results {
		if r.SLO == nil {
			continue
		}
		for _, v := range r.SLO.Violations {
			fmt.Fprintf(w, "SLO violation [%s]: %s\n", r.Name, v)
			violated++
		}
	}
	if violated > 0 {
		return fmt.Errorf("%d SLO violation(s) across %d scenario(s)", violated, len(results))
	}
	return nil
}

func printResult(w io.Writer, r *kwbench.ScenarioResult) {
	l := r.Latency
	fmt.Fprintf(w, "  %-28s %-6s %7d ops  %9.1f ops/s  p50=%8.2fms p90=%8.2fms p99=%8.2fms p999=%8.2fms  allocs/op=%.0f\n",
		r.Name, r.Loop, r.Ops, r.OpsPerSec, l.P50, l.P90, l.P99, l.P999, r.AllocsPerOp)
	if r.Loop == "open" {
		fmt.Fprintf(w, "  %-28s target=%.0f/s achieved=%.1f/s\n", "", r.TargetRate, r.AchievedRate)
	}
	if r.HitRate != nil {
		fmt.Fprintf(w, "  %-28s cache hit rate %.2f\n", "", *r.HitRate)
	}
	if r.Errors > 0 || r.Sheds > 0 {
		fmt.Fprintf(w, "  %-28s errors %d (rate %.4f)  sheds %d (rate %.4f)\n",
			"", r.Errors, r.ErrorRate, r.Sheds, r.ShedRate)
	}
	for _, row := range r.MixRows {
		fmt.Fprintf(w, "  %-28s mix %-12s %7d ops  p99=%8.2fms\n", "", row.Kind, row.Ops, row.Latency.P99)
	}
	if r.CrossChecked > 0 {
		fmt.Fprintf(w, "  %-28s cross-checked %d ops, %d mismatches\n", "", r.CrossChecked, r.Mismatches)
	}
	if m := r.Mobility; m != nil {
		fmt.Fprintf(w, "  %-28s replayed %d epochs: mean kept %.1f / added %.1f / removed %.1f members, edge churn %.3f\n",
			"", m.Epochs, m.MeanKept, m.MeanAdded, m.MeanRemoved, m.MeanEdgeChurn)
	}
}
