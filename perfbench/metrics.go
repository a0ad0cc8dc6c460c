package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's schema: BENCHMARK.json declares the same names and units
// (TestMetricNamesMatchBenchmarkJSON keeps them identical).
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics of every workload, printed by an
// untraced run. Each is measured on every workload, and each stays steady
// from seed to seed and run to run on a shared 2-vCPU virtual machine whose
// speed drifts by a fifth over minutes (see README.md for the figures that
// do not, reported per layer instead). cpu_per_eval_ref is the CPU cost of
// an evaluation in runs of the workload's reference kernel (calib.go), and
// heap_p90_mb the 90th percentile of the heap's size over the timed run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_per_eval_ref", "ref"},
	{"heap_p90_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer the workload does not pass
// through reads 0 (see README.md for which layer each workload exercises).
// The api.* rows are the caller-observed throughput and latencies of the
// untraced pass: on the tune workloads "suggest" is the in-process
// Engine.SuggestAll that hands out a batch and "report" is Engine.Observe;
// on serve-fleet both are HTTP calls through gptune/client.
// api.cpu_ms_per_eval is the CPU cost of cpu_per_eval_ref in milliseconds,
// host.ref_kernel_ms the reference kernel's own, and host.rss_peak_mb the
// process's peak resident memory. A tail is the
// highest percentile of tailLadder that has at least minBeyond samples
// beyond it. The quality.* rows are time to quality against the known
// optimum. Wall-clock figures move with the host's CPU steal, and quality
// with the seed, far more than with the code, so they carry no bound.
var perLayer = []metricDef{
	{"api.evals_per_s", "evals/s"},
	{"api.cpu_ms_per_eval", "ms"},
	{"host.ref_kernel_ms", "ms"},
	{"host.rss_peak_mb", "MiB"},
	{"api.suggest_ms.p50", "ms"},
	{"api.suggest_ms.tail", "ms"},
	{"api.report_ms.p50", "ms"},
	{"api.report_ms.tail", "ms"},
	{"la.cholesky_ms", "ms"},
	{"gp.fit_ms", "ms"},
	{"gp.fit_w1_ms", "ms"},
	{"gp.fit_exponent", "ratio"},
	{"gp.predict_ns", "ns"},
	{"surrogate.sgp.fit_ms", "ms"},
	{"surrogate.sgp.append_ms", "ms"},
	{"surrogate.sgp.predict_ns", "ns"},
	{"core.generations", "count"},
	{"core.refits", "count"},
	{"core.generation_ms.p50", "ms"},
	{"core.generation_ms.max", "ms"},
	{"core.modeling_s", "s"},
	{"core.search_s", "s"},
	{"core.objective_s", "s"},
	{"core.observe_us.p50", "us"},
	{"histdb.checkpoint_us.p50", "us"},
	{"histdb.checkpoint_us.tail", "us"},
	{"histdb.load_ms", "ms"},
	{"serve.suggest_us.p50", "us"},
	{"serve.suggest_us.tail", "us"},
	{"serve.suggest_gen_ms.p50", "ms"},
	{"serve.report_us.p50", "us"},
	{"serve.report_us.tail", "us"},
	{"serve.create_ms.p50", "ms"},
	{"serve.dup_report_ratio", "ratio"},
	{"serve.http_4xx", "count"},
	{"serve.http_5xx", "count"},
	{"router.self_us.p50", "us"},
	{"router.self_us.tail", "us"},
	{"client.self_us.p50", "us"},
	{"client.attempts_per_call", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.self_sum_gap_pct", "%"},
	{"quality.time_to_1pct_s", "s"},
	{"quality.evals_to_1pct", "count"},
	{"quality.best_gap_pct", "%"},
}

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be, highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.75}

// percentile returns the nearest-rank q-quantile of xs and whether at least
// minBeyond samples lie strictly beyond its rank. xs need not be sorted.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// tail returns the highest tailLadder percentile of xs that satisfies the
// percentile rule, and that percentile. With too few samples for even the
// lowest rung it returns the maximum and q = 1, so callers can say so.
func tail(xs []float64) (v, q float64) {
	for _, q := range tailLadder {
		if v, ok := percentile(xs, q); ok {
			return v, q
		}
	}
	if len(xs) == 0 {
		return 0, 1
	}
	s := sortedCopy(xs)
	return s[len(s)-1], 1
}

// median is the nearest-rank median; callers check len(xs) ≥ 2·minBeyond
// where the percentile rule matters.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metricSet is one run's measured values plus notes for the human-readable
// report (sample counts, which percentile a tail is).
type metricSet struct {
	values map[string]float64
	notes  map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, notes: map[string]string{}}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

func (m *metricSet) note(name, format string, args ...any) {
	m.notes[name] = fmt.Sprintf(format, args...)
}

// setDist records the median and tail of a latency sample under the two
// names, noting the sample count and which percentile the tail is.
func (m *metricSet) setDist(p50Name, tailName string, xs []float64) {
	m.set(p50Name, median(xs))
	m.note(p50Name, "n=%d", len(xs))
	v, q := tail(xs)
	m.set(tailName, v)
	if q == 1 {
		m.note(tailName, "max of n=%d (below the percentile rule)", len(xs))
	} else {
		m.note(tailName, "p%g of n=%d", q*100, len(xs))
	}
}
