// Command perfbench is the repository's benchmark: one command that runs a
// named workload end to end through the system's public entry points, checks
// its outputs, and prints its metrics. With -trace 1 it runs the workload
// twice — untraced, then traced — and prints the per-layer metrics instead.
//
//	bash perfbench/run.sh --workload tune-gemm --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - tune-gemm: batch MLA on the constrained gemm scenario with the exact
//     LCM surrogate and a checkpoint WAL (modeling-bound).
//   - tune-history: the same loop seeded from a generated prior history,
//     with the sparse sgp surrogate refitting every few generations.
//   - serve-fleet: many small synchronous recsys studies served by two
//     gptuned replicas behind the router, driven by closed-loop clients.
//   - all: every workload above in turn (a convenience; prints one result
//     line per workload).
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Any failed output check exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// workloads lists the benchmark's workloads; BENCHMARK.json names the same.
var workloads = []string{tuneGemm.name, tuneHistory.name, serveFleet.name}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch directory for this run's files
	spanDir  string // where traced runs write their spans
	workers  int
}

// outcome is one workload run: metrics, failed output checks, and the
// operation counts behind the error ratio.
type outcome struct {
	metrics           *metricSet
	checks            []string
	attempted, failed int64
	spans             []span
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 30, "nominal measured length of the run; sizes the fixed work per run")
	traceFlag := flag.Int("trace", 0, "1 runs the workload untraced and then traced and prints the per-layer metrics")
	build := flag.String("build", ".bench_build", "directory for scratch data and span files")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	ok := true
	for _, name := range names {
		if !known(name) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", name, strings.Join(workloads, ", "))
			os.Exit(2)
		}
		c := runConfig{
			workload: name,
			seed:     *seed,
			seconds:  max(1, *seconds),
			trace:    *traceFlag == 1,
			dir:      filepath.Join(*build, "work", fmt.Sprintf("%s-%d", name, os.Getpid())),
			spanDir:  filepath.Join(*build, "spans"),
			workers:  envWorkers(),
		}
		res, err := runOne(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// runOne runs one workload in a fresh scratch directory, prints the
// human-readable report, and returns the result line.
func runOne(c runConfig) (*result, error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.dir)
	meta := newRunMeta(c.workload, c.seed, c.seconds, c.trace, c.dir)
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# perfbench %s\n", metaLine)

	var o *outcome
	switch c.workload {
	case tuneGemm.name:
		o, err = tuneGemm.run(c)
	case tuneHistory.name:
		o, err = tuneHistory.run(c)
	case serveFleet.name:
		o, err = serveFleet.run(c)
	}
	if err != nil {
		return nil, err
	}
	o.metrics.set("host.rss_peak_mb", rssPeakMiB())
	if c.trace {
		if err := os.MkdirAll(c.spanDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(c.spanDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
		if err := writeSpans(path, o.spans); err != nil {
			return nil, err
		}
		fmt.Printf("# spans: %d written to %s\n", len(o.spans), path)
	}
	return report(c, o)
}

// report prints every measured metric with its unit and notes, then the
// output checks, and builds the result line from the metric list the run
// kind reports.
func report(c runConfig, o *outcome) (*result, error) {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	all := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, d := range all {
		v, ok := o.metrics.values[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-28s %14.6g %s", d.name, v, d.unit)
		if n := o.metrics.notes[d.name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	errRatio := 0.0
	if o.attempted > 0 {
		errRatio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%-28s %14.6g ratio  (%d failed of %d attempted)\n", "error_ratio", errRatio, o.failed, o.attempted)
	sort.Strings(o.checks)
	for _, chk := range o.checks {
		fmt.Printf("CHECK FAILED: %s\n", chk)
	}
	res := &result{
		Correct:   len(o.checks) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.metrics.values[d.name]
		if !ok {
			if !c.trace {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			v = 0 // this workload does not pass through the layer
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	return res, nil
}

func envWorkers() int {
	if v := os.Getenv("PB_WORKERS"); v != "" {
		n, _ := strconv.Atoi(v)
		return n
	}
	return runtime.NumCPU()
}
