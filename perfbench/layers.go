package main

import (
	"fmt"
	"math"
	"time"

	"repro/gptune"
	"repro/internal/la"
	"repro/internal/surrogate"
)

// layerData is the data a workload's sessions actually presented to the
// model layers: exact holds the workload's own evaluations (the covariance
// an exact LCM factors), full adds any prior history (what sgp fits).
type layerData struct {
	exact, full *gptune.Dataset
	seed        int64
	inducing    int // the workload's sgp inducing points per task; 0 = default
}

// datasetOf normalizes per-task native configurations into a gp dataset.
func datasetOf(p *gptune.Problem, xs [][][]float64, ys [][][]float64) *gptune.Dataset {
	d := &gptune.Dataset{Dim: p.Tuning.Dim(), X: make([][][]float64, len(xs)), Y: make([][]float64, len(ys))}
	for t := range xs {
		for j, x := range xs[t] {
			d.X[t] = append(d.X[t], p.Tuning.Normalize(x))
			d.Y[t] = append(d.Y[t], ys[t][j][0])
		}
	}
	return d
}

// prefix keeps the first m samples of every task.
func prefix(d *gptune.Dataset, m int) *gptune.Dataset {
	out := &gptune.Dataset{Dim: d.Dim, X: make([][][]float64, len(d.X)), Y: make([][]float64, len(d.Y))}
	for t := range d.X {
		k := min(m, len(d.X[t]))
		out.X[t], out.Y[t] = d.X[t][:k], d.Y[t][:k]
	}
	return out
}

// timeReps runs fn until it has run at least minReps times and for at least
// minTotal, and returns the median duration.
func timeReps(minReps int, minTotal time.Duration, fn func() error) (time.Duration, error) {
	var ds []float64
	var total time.Duration
	for len(ds) < minReps || total < minTotal {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// layerRows times la, gp and surrogate through their public functions at
// the sizes in ld, and records them in m.
func layerRows(m *metricSet, ld layerData, workers int) error {
	if err := laRows(m, ld.exact); err != nil {
		return err
	}
	if err := gpRows(m, ld.exact, workers, ld.seed); err != nil {
		return err
	}
	return sgpRows(m, ld.full, workers, ld.seed, ld.inducing)
}

// laRows factors a squared-exponential kernel matrix over the exact
// dataset's points, the covariance size an exact LCM generation factors.
func laRows(m *metricSet, d *gptune.Dataset) error {
	var pts [][]float64
	for _, xs := range d.X {
		pts = append(pts, xs...)
	}
	n := len(pts)
	a := la.NewMatrix(n, n)
	for i := range pts {
		for j := range pts {
			s := 0.0
			for k := range pts[i] {
				diff := pts[i][k] - pts[j][k]
				s += diff * diff
			}
			v := math.Exp(-s / 0.5)
			if i == j {
				v += 1e-3
			}
			a.Set(i, j, v)
		}
	}
	d0, err := timeReps(5, 200*time.Millisecond, func() error {
		_, err := la.Cholesky(a)
		return err
	})
	if err != nil {
		return fmt.Errorf("la.Cholesky at n=%d: %w", n, err)
	}
	m.set("la.cholesky_ms", ms(d0))
	m.note("la.cholesky_ms", "n=%d", n)
	return nil
}

// gpRows fits the exact LCM on growing prefixes of the dataset — the sizes
// successive generations present — for the Fig. 3 exponent, then at full
// size with one worker, and times prediction.
func gpRows(m *metricSet, d *gptune.Dataset, workers int, seed int64) error {
	per := len(d.X[0])
	for _, xs := range d.X {
		per = min(per, len(xs))
	}
	sizes := []int{per / 2, per * 2 / 3, per * 5 / 6, per}
	var logN, logT []float64
	var full *gptune.Surrogate
	var fullMs float64
	for _, k := range sizes {
		sub := prefix(d, k)
		t0 := time.Now()
		model, err := gptune.FitSurrogate(sub, gptune.SurrogateOptions{Workers: workers, Seed: seed})
		if err != nil {
			return fmt.Errorf("gp fit at n=%d: %w", sub.TotalSamples(), err)
		}
		dt := time.Since(t0)
		logN = append(logN, math.Log(float64(sub.TotalSamples())))
		logT = append(logT, math.Log(float64(dt)))
		full, fullMs = model, ms(dt)
	}
	m.set("gp.fit_ms", fullMs)
	m.note("gp.fit_ms", "n=%d workers=%d", d.TotalSamples(), workers)
	m.set("gp.fit_exponent", slope(logN, logT))
	m.note("gp.fit_exponent", "log-log slope over n=%v", func() []int {
		ns := make([]int, len(sizes))
		for i, k := range sizes {
			ns[i] = k * len(d.X)
		}
		return ns
	}())

	t0 := time.Now()
	if _, err := gptune.FitSurrogate(prefix(d, per), gptune.SurrogateOptions{Workers: 1, Seed: seed}); err != nil {
		return err
	}
	m.set("gp.fit_w1_ms", ms(time.Since(t0)))
	m.note("gp.fit_w1_ms", "n=%d workers=1", d.TotalSamples())

	ws := full.NewPredictWorkspace()
	pts, tasks := flatten(d)
	const calls = 20000
	sink := 0.0
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		j := i % len(pts)
		mu, v := full.PredictInto(ws, tasks[j], pts[j])
		sink += mu + v
	}
	m.set("gp.predict_ns", float64(time.Since(t0))/calls)
	if math.IsNaN(sink) {
		return fmt.Errorf("gp prediction returned NaN")
	}
	return nil
}

// sgpRows fits the sparse backend on the full dataset, appends one sample
// per task at a time, and times prediction.
func sgpRows(m *metricSet, d *gptune.Dataset, workers int, seed int64, inducing int) error {
	fitter, err := surrogate.New(surrogate.KindSGP)
	if err != nil {
		return err
	}
	opts := surrogate.FitOptions{Workers: workers, Seed: seed, Inducing: inducing}
	t0 := time.Now()
	model, err := fitter.Fit(d, opts)
	if err != nil {
		return fmt.Errorf("sgp fit at n=%d: %w", d.TotalSamples(), err)
	}
	m.set("surrogate.sgp.fit_ms", ms(time.Since(t0)))
	m.note("surrogate.sgp.fit_ms", "n=%d", d.TotalSamples())

	inc, ok := model.(surrogate.Incremental)
	if !ok {
		return fmt.Errorf("sgp model does not implement surrogate.Incremental")
	}
	batch := &gptune.Dataset{Dim: d.Dim, X: make([][][]float64, len(d.X)), Y: make([][]float64, len(d.Y))}
	step := 0
	dApp, err := timeReps(5, 50*time.Millisecond, func() error {
		for t := range d.X {
			j := len(d.X[t]) - 1 - step%len(d.X[t])
			batch.X[t] = [][]float64{d.X[t][j]}
			batch.Y[t] = []float64{d.Y[t][j]}
		}
		step++
		return inc.Append(batch, workers)
	})
	if err != nil {
		return fmt.Errorf("sgp append: %w", err)
	}
	m.set("surrogate.sgp.append_ms", ms(dApp))
	m.note("surrogate.sgp.append_ms", "one sample per task onto n=%d", d.TotalSamples())

	ws := model.NewWorkspace()
	pts, tasks := flatten(d)
	const calls = 20000
	sink := 0.0
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		j := i % len(pts)
		mu, v := model.PredictInto(ws, tasks[j], pts[j])
		sink += mu + v
	}
	m.set("surrogate.sgp.predict_ns", float64(time.Since(t0))/calls)
	if math.IsNaN(sink) {
		return fmt.Errorf("sgp prediction returned NaN")
	}
	return nil
}

func flatten(d *gptune.Dataset) (pts [][]float64, tasks []int) {
	for t, xs := range d.X {
		for _, x := range xs {
			pts = append(pts, x)
			tasks = append(tasks, t)
		}
	}
	return pts, tasks
}

// slope is the least-squares slope of y over x.
func slope(x, y []float64) float64 {
	mx, my := mean(x), mean(y)
	num, den := 0.0, 0.0
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
