// Command ygmperf is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time and prints its metrics, the
// last line being one JSON object:
//
//	ygmperf --workload bfs-local --seed 1 --seconds 30 --trace 0
//
// Inputs are generated from --seed before any timing starts and every
// output is checked against a sequential oracle. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run measures half
// its time untraced and half traced, and reports the per-layer metrics
// (spans recorded by this program around every call into a layer), the
// per-rank time reconciliation and the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// corrupt seeds one wrong oracle expectation (the teeth test): the
	// run must then count a failure and exit non-zero.
	corrupt bool
}

// execFn runs a prepared workload for a time budget.
type execFn func(budget time.Duration, traced bool) (*pass, error)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// prepare generates the inputs and the oracle from the seed. It runs
	// before any timing.
	prepare func(seed int64, corrupt bool) (execFn, error)
	// names are the workload's own names for the generic metrics, printed
	// in the human-readable block.
	names metricNames
}

// metricNames maps the generic end-to-end metrics onto what a user of
// one workload calls them.
type metricNames struct {
	bulk, bulkUnit         string
	step, stepUnit         string
	stepScale              float64 // step value = ms * stepScale
	stepRate, stepRateUnit string
}

var workloads = []workload{
	{
		name: "bfs-local", prepare: prepareBFS,
		names: metricNames{"ingest_edges_per_s", "edges/s", "bfs_search_ms", "ms", 1, "bfs_teps", "edges/s"},
	},
	{
		name: "counter-tcp", prepare: prepareCounter,
		names: metricNames{"count_words_per_s", "words/s", "lookup_round_ms", "ms", 1, "lookups_per_s", "1/s"},
	},
	{
		name: "degree-sim", prepare: prepareDegree,
		names: metricNames{"sim_records_per_s", "records/host-s", "sim_makespan_us", "sim-us", 1e3, "sim_records_per_sim_s", "records/sim-s"},
	},
}

// metric is one named value with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ygmperf:", err)
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "ygmperf: unknown workload %q\n", cfg.workload)
		return 2
	}
	exec, err := wl.prepare(cfg.seed, cfg.corrupt)
	if err != nil {
		fmt.Fprintln(stderr, "ygmperf: generating inputs:", err)
		return 1
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	// A TCP world has no deadlock watchdog (each transport.Run sees only
	// its own rank), so bound the whole run: a hang becomes an error.
	hang := time.AfterFunc(2*budget+time.Minute, func() {
		fmt.Fprintf(stderr, "ygmperf: no result %v after the start; giving up\n", 2*budget+time.Minute)
		os.Exit(3)
	})
	defer hang.Stop()

	var metrics []metric
	var attempted, failed int64
	if !cfg.trace {
		p, err := exec(budget, false)
		if err != nil {
			fmt.Fprintln(stderr, "ygmperf:", err)
			return 1
		}
		attempted, failed = p.attempted, p.failed
		metrics = endToEnd(p)
		printEndToEnd(stdout, wl, cfg, p)
	} else {
		base, err := exec(budget/2, false)
		if err != nil {
			fmt.Fprintln(stderr, "ygmperf:", err)
			return 1
		}
		p, err := exec(budget/2, true)
		if err != nil {
			fmt.Fprintln(stderr, "ygmperf:", err)
			return 1
		}
		attempted, failed = base.attempted+p.attempted, base.failed+p.failed
		metrics = perLayer(base, p)
		printPerLayer(stdout, wl, cfg, p, metrics)
		if cfg.spansDir != "" {
			name := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
			if err := p.tr.writeSpans(cfg.spansDir, name); err != nil {
				fmt.Fprintln(stderr, "ygmperf:", err)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "  %-34s %.6g (%d failed of %d checked)\n", "fail_ratio", ratio(float64(failed), float64(attempted)), failed, attempted)
	if err := printResult(stdout, failed == 0, attempted, failed, metrics); err != nil {
		fmt.Fprintln(stderr, "ygmperf:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("ygmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: bfs-local, counter-tcp or degree-sim")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured time, seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run with per-layer metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory for the traced run's span file (empty: not written)")
	fs.BoolVar(&cfg.corrupt, "corrupt-oracle", false, "seed one wrong oracle expectation (teeth test)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if !(cfg.seconds > 0) {
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(p *pass) []metric {
	return []metric{
		{"setup_s", "s", median(p.setup)},
		{"bulk_items_per_s", "1/s", median(p.bulk)},
		{"step_ms_p50", "ms", percentile(p.steps, 0.5)},
		{"step_ms_p90", "ms", percentile(p.steps, 0.9)},
		{"step_items_per_s", "1/s", ratio(p.stepItems, p.stepSecs)},
		{"peak_rss_mib", "MiB", p.rssMiB},
	}
}

func printEndToEnd(w io.Writer, wl *workload, cfg config, p *pass) {
	n := wl.names
	fmt.Fprintf(w, "%s seed %d: %d worlds, %d steps, GOMAXPROCS %d, %.0f s\n",
		wl.name, cfg.seed, p.rep.worlds, len(p.steps), runtime.GOMAXPROCS(0), cfg.seconds)
	beyond := len(p.steps) - int(math.Ceil(0.9*float64(len(p.steps))))
	rows := []struct {
		name, unit string
		v          float64
		generic    string
	}{
		{"setup_s", "s", median(p.setup), fmt.Sprintf("median of %d worlds", len(p.setup))},
		{n.bulk, n.bulkUnit, median(p.bulk), fmt.Sprintf("bulk_items_per_s; median of %d", len(p.bulk))},
		{n.step + "_p50", n.stepUnit, percentile(p.steps, 0.5) * n.stepScale, "step_ms_p50"},
		{n.step + "_p90", n.stepUnit, percentile(p.steps, 0.9) * n.stepScale,
			fmt.Sprintf("step_ms_p90; %d samples, %d beyond", len(p.steps), beyond)},
		{n.stepRate, n.stepRateUnit, ratio(p.stepItems, p.stepSecs), "step_items_per_s"},
		{"peak_rss_mib", "MiB", p.rssMiB, "VmHWM"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %-14.6g %-15s (%s)\n", r.name, r.v, r.unit, r.generic)
	}
}

// printResult writes the final JSON line.
func printResult(w io.Writer, correct bool, attempted, failed int64, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(metrics))}
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
