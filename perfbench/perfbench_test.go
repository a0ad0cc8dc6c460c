package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "router", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "router", Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Layer: "router", Start: 60, End: 70},
		{ID: 5, Parent: 1, Layer: "router", Start: 90, End: 120}, // overhangs the parent
		{ID: 6, Parent: 4, Layer: "serve", Start: 62, End: 65},
	}
	self := selfTimes(spans)
	// Children cover [10,50] ∪ [60,70] ∪ [90,100] = 60 of the parent's 100.
	want := map[uint64]int64{1: 40, 2: 20, 3: 30, 4: 7, 5: 30, 6: 3}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	byLayer := layerSelf(spans)
	if len(byLayer) != 1 {
		t.Fatalf("got %d roots, want 1", len(byLayer))
	}
	got := byLayer[1]
	if got["client"] != 40 || got["router"] != 20+30+7+30 || got["serve"] != 3 {
		t.Errorf("layer self times = %v", got)
	}
}

func TestSelfTimesOfNestedChainAddUpToRoot(t *testing.T) {
	// call → attempt → router → replica, each strictly inside its parent:
	// the layer self times sum to the root's duration.
	spans := []span{
		{ID: 1, Layer: "client", Op: "suggest", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Layer: "client", Op: "attempt", Start: 50, End: 950},
		{ID: 3, Parent: 2, Layer: "router", Op: "suggest", Start: 100, End: 900},
		{ID: 4, Parent: 3, Layer: "serve", Op: "suggest", Start: 300, End: 700},
	}
	var sum int64
	for _, v := range layerSelf(spans)[1] {
		sum += v
	}
	if sum != 1000 {
		t.Fatalf("layer self times sum to %d, want the root's 1000", sum)
	}
	if got := layerSelf(spans)[1]["client"]; got != 50+50+50+50 {
		t.Errorf("client self = %d, want 200", got)
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted input
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{100, 0.9, 90, true},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	for _, c := range []struct {
		n     int
		wantQ float64
	}{
		{20000, 0.999}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {40, 0.75}, {39, 1},
	} {
		if _, q := tail(seq(c.n)); q != c.wantQ {
			t.Errorf("tail(n=%d) picked q=%g, want %g", c.n, q, c.wantQ)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("invalid name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	compare := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(names), len(got))
		}
		for i, d := range got {
			checkName(names[i])
			if !unitRe.MatchString(units[i]) {
				t.Errorf("%s %s: invalid unit %q", kind, names[i], units[i])
			}
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], perfbench %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end_to_end %s: better %q", m.Name, m.Better)
		}
	}
	compare("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	compare("per_layer", perLayer, names, units)
}

// smokeConfig is a traced run small enough for a unit test.
func smokeConfig(t *testing.T, workload string) runConfig {
	return runConfig{workload: workload, seed: 3, seconds: 1, trace: true, dir: t.TempDir(), spanDir: t.TempDir(), workers: 2}
}

func checkSmoke(t *testing.T, c runConfig, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, chk := range o.checks {
		t.Errorf("output check failed: %s", chk)
	}
	if o.failed != 0 || o.attempted == 0 {
		t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
	}
	o.metrics.set("host.rss_peak_mb", rssPeakMiB())
	for _, d := range endToEnd {
		if _, ok := o.metrics.values[d.name]; !ok {
			t.Errorf("end-to-end metric %s missing", d.name)
		}
	}
	res, err := report(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Errorf("result correct=%v with %d metrics, want correct with %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	if len(o.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}

func TestSmokeTuneGemm(t *testing.T) {
	ts := tuneGemm
	ts.delta, ts.epsTot, ts.sessionSeconds = 2, 6, 1
	c := smokeConfig(t, ts.name)
	o, err := ts.run(c)
	checkSmoke(t, c, o, err)
}

func TestSmokeTuneHistory(t *testing.T) {
	ts := tuneHistory
	ts.delta, ts.epsTot, ts.priorPerTask, ts.refitEvery, ts.sessionSeconds = 2, 6, 30, 2, 0.5
	c := smokeConfig(t, ts.name)
	o, err := ts.run(c)
	checkSmoke(t, c, o, err)
	if o.metrics.values["core.refits"] >= o.metrics.values["core.generations"]-1 {
		t.Errorf("refits %v with RefitEvery=2 over %v generations", o.metrics.values["core.refits"], o.metrics.values["core.generations"])
	}
}

func TestSmokeServeFleet(t *testing.T) {
	fs := serveFleet
	fs.epsTot, fs.studiesPerSecond, fs.minOps, fs.refStudies = 4, 3, 0, 1
	c := smokeConfig(t, fs.name)
	o, err := fs.run(c)
	checkSmoke(t, c, o, err)
	for _, name := range []string{"router.self_us.p50", "serve.suggest_us.p50", "client.self_us.p50"} {
		if !(o.metrics.values[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, o.metrics.values[name])
		}
	}
}

func TestRefClocks(t *testing.T) {
	hc, closeHTTP, err := httpClock(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeHTTP()
	for _, rc := range []*refClock{cholClock(2), hc} {
		if !math.IsNaN(rc.kernelMs()) {
			t.Errorf("%s: kernelMs before any run = %v, want NaN", rc.kind, rc.kernelMs())
		}
		for i := 0; i < 2; i++ {
			if err := rc.sample(2); err != nil {
				t.Fatalf("%s: %v", rc.kind, err)
			}
		}
		if rc.runs != 4 || !(rc.kernelMs() > 0) {
			t.Errorf("%s after 4 runs: runs %d, kernelMs %v", rc.kind, rc.runs, rc.kernelMs())
		}
	}
	l := append([]float64(nil), cholMatrix...)
	cholesky(l, cholN)
	// L·Lᵀ reproduces the input.
	for _, ij := range [][2]int{{0, 0}, {5, 3}, {cholN - 1, cholN - 1}, {cholN - 1, 7}} {
		i, j := ij[0], ij[1]
		var s float64
		for k := 0; k <= j; k++ {
			s += l[i*cholN+k] * l[j*cholN+k]
		}
		if d := math.Abs(s - cholMatrix[i*cholN+j]); d > 1e-9 {
			t.Errorf("(L·Lᵀ)[%d][%d] = %v, want %v", i, j, s, cholMatrix[i*cholN+j])
		}
	}
}
