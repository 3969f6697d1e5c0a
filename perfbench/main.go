// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, prints eight end-to-end metrics with units, and
// checks every output the program gives:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 25 --trace 0
//
// The seed generates the workload's graph into a .kwcsr file and fixes its
// op schedule; the workload then runs in a fresh child process, which loads
// that file through the program and times its measured ops in one chunk per
// nominal second, reporting each timing as the median over the chunks; six
// more fresh processes, three before it and three after, only set the
// program up, and setup_s is the median of the seven set-ups. --trace 1 then
// replays the workload traced, in one more fresh process, and prints the
// per-layer ledger instead. --repeat N runs the workload N times on
// consecutive seeds and reports each metric's median, quartiles and spread
// across them. The last line of standard output is always one JSON object.
// See METHODOLOGY.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"kwmds/internal/stats"
)

// workDir holds every file a run writes, inside the checkout.
const workDir = ".bench_build/runs"

// setupRuns is how many fresh processes set the program up in one run:
// the measured one, and setupRuns-1 that stop after the set-up.
const setupRuns = 7

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "serve-cold | serve-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated graph and the op schedule")
	flag.IntVar(&o.seconds, "seconds", 25, "nominal length of the measured phase; fixes the schedule length and its number of chunks")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload N times on seeds seed..seed+N-1 and report the spread")
	child := flag.String("child", "", "run the job file in this process (used by the benchmark itself)")
	flag.Parse()
	var err error
	switch {
	case *child != "":
		err = runChild(*child)
	case o.repeat > 0:
		err = runRepeat(o)
	default:
		err = runOnce(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []struct {
	name, unit string
	get        func(r *result) float64
}{
	{"setup_s", "s", func(r *result) float64 { return r.SetupS }},
	{"ops_per_s", "ops/s", func(r *result) float64 { return r.OpsPerS }},
	{"lat_p50_ms", "ms", func(r *result) float64 { return r.P50ms }},
	{"lat_p90_ms", "ms", func(r *result) float64 { return r.P90ms }},
	{"cpu_ms_per_op", "ms", func(r *result) float64 { return r.CPUms }},
	{"rss_peak_mb", "MiB", func(r *result) float64 { return r.RSSMiB }},
	{"ds_over_lb", "ratio", func(r *result) float64 { return r.DSOverLB }},
	// 1 − fail_rate: a metric the contract compares must never read 0.
	{"success_rate", "ratio", func(r *result) float64 { return 1 - float64(r.Failed)/float64(r.Ops) }},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// prepare generates a run's inputs into a fresh directory under workDir.
func prepare(o options) (string, job, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return "", job{}, err
	}
	if o.seconds < 1 {
		return "", job{}, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", job{}, err
	}
	dir, err := os.MkdirTemp(workDir, fmt.Sprintf("%s-%d-", w.name, o.seed))
	if err != nil {
		return "", job{}, err
	}
	j, err := writeInputs(w, o.seed, o.seconds, dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", job{}, fmt.Errorf("generating inputs: %w", err)
	}
	return dir, j, nil
}

// runChildJob runs j in a fresh process and returns its result.
func runChildJob(dir string, j job, name string) (*result, error) {
	j.DataDir = filepath.Join(dir, "data-"+name)
	path := filepath.Join(dir, "job-"+name+".json")
	data, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--child", path)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s run: %w", name, err)
	}
	if res.Ops == 0 && !j.SetupOnly {
		return nil, errors.New(name + " run: no ops measured")
	}
	for _, f := range res.Fails {
		fmt.Fprintf(os.Stderr, "perfbench: %s run: check failed: %s\n", name, f)
	}
	return &res, nil
}

// runMeasured runs j in a fresh process between setupRuns-1 more that only
// set the program up, half of them before it and half after, and returns
// its result with setup_s the median of all the set-ups. Spread over the
// run, the set-ups outlast a slow spell of the host.
func runMeasured(dir string, j job) (*result, error) {
	setups := make([]float64, 0, setupRuns)
	sj := j
	sj.SetupOnly = true
	setUp := func(from, to int) error {
		for r := from; r < to; r++ {
			res, err := runChildJob(dir, sj, fmt.Sprintf("setup-%d", r))
			if err != nil {
				return err
			}
			setups = append(setups, res.SetupS)
		}
		return nil
	}
	if err := setUp(1, setupRuns/2+1); err != nil {
		return nil, err
	}
	res, err := runChildJob(dir, j, "untraced")
	if err != nil {
		return nil, err
	}
	if err := setUp(setupRuns/2+1, setupRuns); err != nil {
		return nil, err
	}
	res.SetupS = stats.Quantile(append(setups, res.SetupS), 0.5)
	return res, nil
}

func runOnce(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	}
	dir, j, err := prepare(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h := hostInfo()
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d: %d measured ops, %d warm-up\n",
		o.workload, o.seed, o.seconds, o.trace, j.Sched.measured(), j.Sched.Warm)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s kernel=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.CPU)

	base, err := runMeasured(dir, j)
	if err != nil {
		return err
	}
	printEndToEnd(base)
	v := verdict{Correct: base.Failed == 0, Attempted: base.Ops, Failed: base.Failed, Metrics: map[string]metric{}}
	if o.trace == 0 {
		for _, m := range endToEnd {
			v.Metrics[m.name] = metric{Value: m.get(base), Unit: m.unit}
		}
		return printVerdict(v)
	}

	j.Trace = true
	j.SpanFile = filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	traced, err := runChildJob(dir, j, "traced")
	if err != nil {
		return err
	}
	traced.Layers["trace.overhead_pct"] = layerStat{Value: 100 * (traced.P50ms/base.P50ms - 1), Count: traced.Ops}
	for name, st := range serverLayers(base) {
		traced.Layers[name] = st
	}
	printLayers(traced, base, j.SpanFile)
	v.Correct = v.Correct && traced.Failed == 0
	v.Attempted += traced.Ops
	v.Failed += traced.Failed
	for _, m := range perLayer {
		v.Metrics[m.name] = metric{Value: traced.Layers[m.name].Value, Unit: m.unit}
	}
	return printVerdict(v)
}

func printEndToEnd(r *result) {
	fmt.Printf("%-16s %14s  %s\n", "metric", "value", "unit")
	for _, m := range endToEnd {
		fmt.Printf("%-16s %14.6g  %s\n", m.name, m.get(r), m.unit)
	}
	fmt.Printf("%-16s %14.6g  %s (%d of %d ops failed)\n", "fail_rate", float64(r.Failed)/float64(r.Ops), "ratio", r.Failed, r.Ops)
}

// printLayers prints the traced run's ledger: one row per per-layer metric
// with its count, value and share of the untraced lat_p50_ms, then the
// spans by name with their self time.
func printLayers(r, base *result, spanFile string) {
	p50, setup := base.P50ms, base.SetupS*1000
	fmt.Printf("\n# per-layer metrics (traced replay; share = value / untraced lat_p50_ms %.4g ms, or setup_s %.4g ms for set-up layers)\n", p50, setup)
	fmt.Printf("%-24s %8s %14s  %-6s %8s\n", "metric", "count", "p50/value", "unit", "share")
	for _, m := range perLayer {
		st := r.Layers[m.name]
		share := "-"
		switch {
		case m.setup:
			share = fmt.Sprintf("%.1f%%", 100*st.Value/setup)
		case m.unit == "ms":
			share = fmt.Sprintf("%.1f%%", 100*st.Value/p50)
		case m.unit == "us":
			share = fmt.Sprintf("%.1f%%", 100*st.Value/1000/p50)
		}
		fmt.Printf("%-24s %8d %14.6g  %-6s %8s\n", m.name, st.Count, st.Value, m.unit, share)
	}
	fmt.Printf("\n# spans (written to %s); self = span minus its logical children\n", spanFile)
	fmt.Printf("%-30s %8s %12s %12s  %s\n", "span", "count", "p50_ms", "self_p50_ms", "children")
	for _, s := range r.Spans {
		fmt.Printf("%-30s %8d %12.5g %12.5g  %s\n", s.Name, s.Count, s.P50ms, s.SelfP50ms, strings.Join(s.Children, " "))
	}
	fmt.Printf("# residue per op (self time of spans with children): %.5g ms; tracing overhead: %+.2f%% on lat_p50_ms\n",
		r.Layers["trace.residue_ms"].Value, r.Layers["trace.overhead_pct"].Value)
}

func printVerdict(v verdict) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runRepeat is the steadiness report: the workload N times on consecutive
// seeds, as N separate runs, then per metric the median, the quartiles and
// the spreads across them. Like the runs that check a benchmark's bounds,
// it changes the seed from run to run, so its spreads hold graph-to-graph
// differences as well as run-to-run noise.
func runRepeat(o options) error {
	h := hostInfo()
	fmt.Printf("# perfbench steadiness %s seeds %d..%d seconds=%d\n", o.workload, o.seed, o.seed+int64(o.repeat)-1, o.seconds)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s kernel=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.CPU)
	vals := make([][]float64, len(endToEnd))
	failed, attempted := 0, 0
	for r := 0; r < o.repeat; r++ {
		ro := o
		ro.seed = o.seed + int64(r)
		dir, j, err := prepare(ro)
		if err != nil {
			return err
		}
		res, err := runMeasured(dir, j)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		failed, attempted = failed+res.Failed, attempted+res.Ops
		row := fmt.Sprintf("seed %-6d", ro.seed)
		for i, m := range endToEnd {
			vals[i] = append(vals[i], m.get(res))
			row += fmt.Sprintf(" %s=%.5g", m.name, m.get(res))
		}
		fmt.Println(row)
	}
	fmt.Printf("%-16s %12s %12s %12s %10s %10s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "range/med", "unit")
	v := verdict{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for i, m := range endToEnd {
		xs := vals[i]
		q1, med, q3 := stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.75)
		sum := stats.Summarize(xs)
		fmt.Printf("%-16s %12.5g %12.5g %12.5g %9.2f%% %9.2f%%  %s\n", m.name, q1, med, q3, 100*(q3-q1)/med, 100*(sum.Max-sum.Min)/med, m.unit)
		v.Metrics[m.name] = metric{Value: med, Unit: m.unit}
	}
	return printVerdict(v)
}
