package la

import (
	"math"
	"math/rand"
	"testing"
)

// subMatrix returns the leading n×n block of a.
func subMatrix(a *Matrix, n int) *Matrix {
	s := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(s.Row(i), a.Row(i)[:n])
	}
	return s
}

func TestPackCholRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 23)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	tp := PackChol(l)
	if tp.N() != 23 {
		t.Fatalf("N = %d, want 23", tp.N())
	}
	d := tp.Dense()
	if maxAbsDiff(l, d) != 0 {
		t.Fatalf("Dense(PackChol(l)) != l")
	}
	b := make([]float64, 23)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := SolveCholVec(l, b)
	got := tp.SolveVec(b)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("packed solve differs from dense solve at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if lg, ld := tp.LogDet(), LogDetFromChol(l); math.Float64bits(lg) != math.Float64bits(ld) {
		t.Fatalf("LogDet = %v, dense = %v", lg, ld)
	}
}

// TestAppendRowMatchesFullCholesky is the core property test: factoring the
// leading n×n block and appending the remaining k rows one at a time must
// agree with a full Cholesky of the (n+k)×(n+k) matrix within tolerance.
func TestAppendRowMatchesFullCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k = 40, 6
	a := randomSPD(rng, n+k)
	l0, err := Cholesky(subMatrix(a, n))
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	tp := PackChol(l0)
	for j := 0; j < k; j++ {
		row := a.Row(n + j)
		if err := tp.AppendRow(append([]float64(nil), row[:n+j]...), row[n+j]); err != nil {
			t.Fatalf("AppendRow %d: %v", j, err)
		}
	}
	full, err := Cholesky(a)
	if err != nil {
		t.Fatalf("full Cholesky: %v", err)
	}
	for i := 0; i < n+k; i++ {
		for j := 0; j <= i; j++ {
			got, want := tp.At(i, j), full.At(i, j)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("factor (%d,%d): append %v vs full %v", i, j, got, want)
			}
		}
	}
}

// TestAppendRowsBlockedBitwiseEqualsSequential pins the contract the gp layer
// builds on: one blocked AppendRows call produces the same bits as appending
// the rows one at a time, for every worker count.
func TestAppendRowsBlockedBitwiseEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, k = 37, 5
	a := randomSPD(rng, n+k)
	l0, err := Cholesky(subMatrix(a, n))
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	seq := PackChol(l0)
	for j := 0; j < k; j++ {
		row := a.Row(n + j)
		if _, err := seq.AppendRowJitter(append([]float64(nil), row[:n+j]...), row[n+j], 0); err != nil {
			t.Fatalf("AppendRowJitter %d: %v", j, err)
		}
	}
	cols := NewMatrix(k, n)
	corner := NewMatrix(k, k)
	for j := 0; j < k; j++ {
		copy(cols.Row(j), a.Row(n + j)[:n])
		for j2 := 0; j2 <= j; j2++ {
			corner.Set(j, j2, a.At(n+j, n+j2))
		}
	}
	for _, workers := range []int{1, 4} {
		blk := PackChol(l0)
		if _, err := blk.AppendRows(cols, corner, 0, workers); err != nil {
			t.Fatalf("AppendRows(workers=%d): %v", workers, err)
		}
		if blk.N() != seq.N() {
			t.Fatalf("N mismatch: %d vs %d", blk.N(), seq.N())
		}
		for i := 0; i < blk.N(); i++ {
			for j := 0; j <= i; j++ {
				if math.Float64bits(blk.At(i, j)) != math.Float64bits(seq.At(i, j)) {
					t.Fatalf("workers=%d: blocked factor differs from sequential at (%d,%d)", workers, i, j)
				}
			}
		}
	}
}

// TestAppendRowNotPositiveDefinite: appending a duplicate of an existing row
// (same covariances, same diagonal) makes the pivot exactly zero, which the
// strict path must reject while leaving the factor untouched.
func TestAppendRowNotPositiveDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 12
	a := randomSPD(rng, n)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	tp := PackChol(l)
	before := tp.Clone()
	// Duplicate row n-1: col = a[n-1][:n-1] extended with a[n-1][n-1] as the
	// covariance against itself, diag = a[n-1][n-1].
	col := append(append([]float64(nil), a.Row(n - 1)[:n-1]...), a.At(n-1, n-1))
	if err := tp.AppendRow(col, a.At(n-1, n-1)); err == nil {
		t.Fatalf("AppendRow accepted a singular extension")
	} else if err != ErrNotPositiveDefinite {
		t.Fatalf("AppendRow error = %v, want ErrNotPositiveDefinite", err)
	}
	if tp.N() != n {
		t.Fatalf("failed append left N = %d, want %d", tp.N(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(tp.At(i, j)) != math.Float64bits(before.At(i, j)) {
				t.Fatalf("failed append mutated the factor at (%d,%d)", i, j)
			}
		}
	}
}

// TestAppendRowJitterEscalates: the same singular extension must succeed on
// the jitter path, reporting a positive jitter, and the resulting factor must
// reconstruct the extended matrix with the jitter on the new diagonal only.
func TestAppendRowJitterEscalates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 10
	a := randomSPD(rng, n)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	tp := PackChol(l)
	col := append(append([]float64(nil), a.Row(n - 1)[:n-1]...), a.At(n-1, n-1))
	diag := a.At(n-1, n-1)
	jit, err := tp.AppendRowJitter(col, diag, 0)
	if err != nil {
		t.Fatalf("AppendRowJitter: %v", err)
	}
	if jit <= 0 {
		t.Fatalf("jitter = %v, want > 0", jit)
	}
	if tp.N() != n+1 {
		t.Fatalf("N = %d, want %d", tp.N(), n+1)
	}
	// L·Lᵀ must equal the extended matrix with jit added at (n, n).
	last := tp.Row(n)
	got := Dot(last, last)
	want := diag + jit
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("reconstructed new diagonal %v, want %v", got, want)
	}
	for j := 0; j < n; j++ {
		rj := tp.Row(j)
		rec := Dot(last[:j+1], rj)
		if math.Abs(rec-col[j]) > 1e-8*math.Max(1, math.Abs(col[j])) {
			t.Fatalf("reconstructed cross term %d: %v, want %v", j, rec, col[j])
		}
	}
}
