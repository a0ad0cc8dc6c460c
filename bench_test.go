// Package repro's root benchmark harness: one benchmark per paper table and
// figure (small-scale variants, mirroring the paper artifact's "*_exp"
// scripts), plus micro-benchmarks of the computational kernels. Full-scale
// regeneration uses cmd/experiments; EXPERIMENTS.md records paper-vs-measured
// for every artifact.
package repro

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gp"
	"repro/internal/la"
)

// benchExperiment runs one registered experiment in quick mode.
func benchExperiment(b *testing.B, id string) {
	spec := experiments.Find(id)
	if spec == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		spec.Run(io.Discard, true, int64(i)+1, 4)
	}
}

func BenchmarkFig2(b *testing.B)           { benchExperiment(b, "Fig2") }
func BenchmarkFig3(b *testing.B)           { benchExperiment(b, "Fig3") }
func BenchmarkFig4Analytical(b *testing.B) { benchExperiment(b, "Fig4a") }
func BenchmarkFig4QR(b *testing.B)         { benchExperiment(b, "Fig4b") }
func BenchmarkFig5QR(b *testing.B)         { benchExperiment(b, "Fig5a") }
func BenchmarkFig5EV(b *testing.B)         { benchExperiment(b, "Fig5b") }
func BenchmarkTable3MHD(b *testing.B)      { benchExperiment(b, "Tab3") }
func BenchmarkFig6QR(b *testing.B)         { benchExperiment(b, "Fig6a") }
func BenchmarkFig6SuperLU(b *testing.B)    { benchExperiment(b, "Fig6b") }
func BenchmarkTable4(b *testing.B)         { benchExperiment(b, "Tab4") }
func BenchmarkFig7Single(b *testing.B)     { benchExperiment(b, "Fig7a") }
func BenchmarkFig7Multi(b *testing.B)      { benchExperiment(b, "Fig7b") }

// --- kernel micro-benchmarks ---

func randomSPD(n int, seed int64) *la.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := la.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// A = M·Mᵀ + n·I is SPD.
	a := la.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, la.Dot(m.Row(i), m.Row(j)))
		}
		a.Data[i*n+i] += float64(n)
	}
	return a
}

func BenchmarkCholeskySerial(b *testing.B) {
	a := randomSPD(300, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyParallel(b *testing.B) {
	a := randomSPD(300, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.ParallelCholesky(a, 64, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDataset(tasks, samples int) *gp.Dataset {
	rng := rand.New(rand.NewSource(2))
	d := &gp.Dataset{Dim: 2}
	for i := 0; i < tasks; i++ {
		var xs [][]float64
		var ys []float64
		for j := 0; j < samples; j++ {
			x := []float64{rng.Float64(), rng.Float64()}
			xs = append(xs, x)
			ys = append(ys, x[0]*x[0]+float64(i)*x[1])
		}
		d.X = append(d.X, xs)
		d.Y = append(d.Y, ys)
	}
	return d
}

func BenchmarkLCMFit(b *testing.B) {
	d := benchDataset(4, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.FitLCM(d, gp.FitOptions{Q: 2, NumStarts: 2, MaxIter: 20, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLCMPredict(b *testing.B) {
	d := benchDataset(4, 12)
	model, err := gp.FitLCM(d, gp.FitOptions{Q: 2, NumStarts: 2, MaxIter: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.3, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(i%4, x)
	}
}
