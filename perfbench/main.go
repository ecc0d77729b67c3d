// Command perfbench is the benchmark of the active-file stack. It runs one
// named workload from one process through the public activefile API, with
// two closed-loop clients, checks every byte it reads against a seeded
// shadow copy, and prints the metrics by name and unit. See README.md.
//
//	perfbench --workload rpc-random --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half and the metrics are the
// per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/activefile/sentinel"
)

func main() {
	registerTracedPrograms()
	sentinel.MaybeChild() // a re-executed procctl sentinel never returns
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "measuring time of the run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      filepath.Join(".bench_build", "perfbench", "run"),
	}
	res, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report(stdout, cfg, res)
	if !res.correct {
		fmt.Fprintln(stderr, "perfbench: incorrect results:", res.firstErr)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report prints the human-readable lines, then the result object last.
func report(w io.Writer, cfg config, res *result) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t clients=%d\n",
		res.workload, cfg.seed, cfg.window.Seconds(), cfg.trace, clients)
	host, _ := json.Marshal(res.host)
	fmt.Fprintf(w, "host %s\n", host)
	for _, m := range res.metrics {
		line := fmt.Sprintf("metric %-34s %14.4f %-6s samples=%d", m.name, m.value, m.unit, m.samples)
		if strings.Contains(m.name, "p99") {
			line += fmt.Sprintf(" beyond_p99=%d", m.beyond)
			if m.beyond < 10 {
				line += " (unresolved: fewer than 10 samples beyond p99)"
			}
		}
		fmt.Fprintln(w, line)
	}
	if len(res.rates) > 0 {
		fmt.Fprintf(w, "calm seconds %d of %d; ops_per_s by calm second %.0f\n", res.calm, res.buckets, res.rates)
		fmt.Fprintf(w, "setup_s each %.4f\n", res.setups)
	}
	if res.spanCount != nil {
		fmt.Fprintf(w, "trace layers %s spans %v driver_peak_rss_mb %.1f\n",
			strings.Join(layersOf(res.spanCount), ","), res.spanCount, res.peakRSS)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}
