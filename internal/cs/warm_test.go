package cs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dct"
)

// sparseScene builds a rows×cols landscape that is exactly sparse in the DCT
// domain, plus a sampled measurement set.
func sparseScene(t *testing.T, rows, cols, m int, seed int64) (x []float64, idx []int, y []float64) {
	t.Helper()
	n := rows * cols
	rng := rand.New(rand.NewSource(seed))
	coeffs := make([]float64, n)
	for k := 0; k < 6; k++ {
		coeffs[rng.Intn(n/8)] = rng.NormFloat64() * 3
	}
	x = make([]float64, n)
	dct.NewPlanND([]int{rows, cols}).Inverse(x, coeffs)
	idx, err := SampleIndices(rng, n, m)
	if err != nil {
		t.Fatal(err)
	}
	y = make([]float64, len(idx))
	for j, gi := range idx {
		y[j] = x[gi]
	}
	return x, idx, y
}

// TestWarmStartConverges checks a warm-started solve recovers the same
// landscape as a cold solve on the same data, in no more iterations.
func TestWarmStartConverges(t *testing.T) {
	rows, cols := 24, 32
	x, idx, y := sparseScene(t, rows, cols, 200, 31)

	cold, err := ReconstructND([]int{rows, cols}, idx, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-start from the cold solution itself: the solver should accept
	// it nearly unchanged.
	opt := Options{Warm: cold.Coeffs}
	warm, err := ReconstructND([]int{rows, cols}, idx, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm solve took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
	var maxDiff, maxErr float64
	for i := range x {
		maxDiff = math.Max(maxDiff, math.Abs(warm.X[i]-cold.X[i]))
		maxErr = math.Max(maxErr, math.Abs(warm.X[i]-x[i]))
	}
	if maxDiff > 1e-6 {
		t.Errorf("warm and cold reconstructions differ by %g", maxDiff)
	}
	if maxErr > 1e-4 {
		t.Errorf("warm reconstruction off the truth by %g", maxErr)
	}
}

// TestWarmStartGrowingSamples is the streaming regime: solve on a prefix of
// the samples, then warm-start the full-set solve from it. The warm solve
// must match the truth and converge faster than the cold full-set solve.
func TestWarmStartGrowingSamples(t *testing.T) {
	rows, cols := 24, 32
	x, idx, y := sparseScene(t, rows, cols, 260, 57)

	half := len(idx) / 2
	first, err := ReconstructND([]int{rows, cols}, idx[:half], y[:half], Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldFull, err := ReconstructND([]int{rows, cols}, idx, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmFull, err := ReconstructND([]int{rows, cols}, idx, y, Options{Warm: first.Coeffs})
	if err != nil {
		t.Fatal(err)
	}
	if warmFull.Iterations >= coldFull.Iterations {
		t.Errorf("warm full solve took %d iterations, cold full %d — no head start",
			warmFull.Iterations, coldFull.Iterations)
	}
	var maxErr float64
	for i := range x {
		maxErr = math.Max(maxErr, math.Abs(warmFull.X[i]-x[i]))
	}
	if maxErr > 1e-4 {
		t.Errorf("warm full reconstruction off the truth by %g", maxErr)
	}
	// Determinism: repeating the same warm solve reproduces it bit for bit.
	again, err := ReconstructND([]int{rows, cols}, idx, y, Options{Warm: first.Coeffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range warmFull.X {
		if warmFull.X[i] != again.X[i] {
			t.Fatalf("warm solve not deterministic at %d", i)
		}
	}
}

// TestWarmStartValidation rejects warm starts of the wrong shape, and the
// promotion rule carries Warm through to the default configuration.
func TestWarmStartValidation(t *testing.T) {
	_, idx, y := sparseScene(t, 8, 8, 20, 3)
	if _, err := ReconstructND([]int{8, 8}, idx, y, Options{Warm: make([]float64, 7)}); err == nil {
		t.Error("want error for wrong warm-start length")
	}
	warm := make([]float64, 64)
	opt := Options{Warm: warm, Workers: 1}.WithDefaults()
	if !opt.Debias || !opt.Continuation || opt.MaxIter != 500 {
		t.Errorf("Warm-only options not promoted to defaults: %+v", opt)
	}
	if opt.Workers != 1 || len(opt.Warm) != 64 {
		t.Error("promotion dropped the carry-through fields")
	}
	// Any other set field disables the promotion, as before.
	if opt := (Options{Warm: warm, Tol: 1e-3}).WithDefaults(); opt.Debias {
		t.Error("promotion fired despite an explicitly-set field")
	}
}
