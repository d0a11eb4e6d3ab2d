package dct

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// dftDirect computes a reference O(n^2) DFT.
func dftDirect(a []complex128, inv bool) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	sign := -1.0
	if inv {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			theta := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += a[j] * cmplx.Exp(complex(0, theta))
		}
		if inv {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 50, 100, 144, 225, 256} {
		p := newFFTPlan(n)
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := dftDirect(a, false)
		got := append([]complex128(nil), a...)
		p.Forward(got)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: FFT[%d]=%v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 8, 15, 50, 99, 128, 225} {
		p := newFFTPlan(n)
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := append([]complex128(nil), a...)
		p.Forward(b)
		p.Inverse(b)
		for i := range a {
			if cmplx.Abs(a[i]-b[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: roundtrip[%d]=%v want %v", n, i, b[i], a[i])
			}
		}
	}
}

func TestDCTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 7, 12, 15, 50, 100, 225} {
		p := NewPlan(n)
		x := randVec(rng, n)
		want := ForwardDirect(x)
		got := make([]float64, n)
		p.Forward(got, x)
		for i := range got {
			if !approxEq(got[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: DCT[%d]=%g want %g", n, i, got[i], want[i])
			}
		}
		back := make([]float64, n)
		p.Inverse(back, got)
		for i := range back {
			if !approxEq(back[i], x[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: IDCT roundtrip[%d]=%g want %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestDCTInverseMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 5, 12, 50} {
		p := NewPlan(n)
		y := randVec(rng, n)
		want := InverseDirect(y)
		got := make([]float64, n)
		p.Inverse(got, y)
		for i := range got {
			if !approxEq(got[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: IDCT[%d]=%g want %g", n, i, got[i], want[i])
			}
		}
	}
}

// TestDCTIsometry checks the Parseval property of the orthonormal DCT, which
// the CS solver relies on for its unit step size.
func TestDCTIsometry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(5))}
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				raw[i] = float64(i%17) - 8
			}
		}
		p := NewPlan(len(raw))
		out := make([]float64, len(raw))
		p.Forward(out, raw)
		var n1, n2 float64
		for i := range raw {
			n1 += raw[i] * raw[i]
			n2 += out[i] * out[i]
		}
		return math.Abs(n1-n2) <= 1e-8*(1+n1)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDCTLinearity is a property test: DCT(a*x + b*y) == a*DCT(x) + b*DCT(y).
func TestDCTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewPlan(40)
	for trial := 0; trial < 25; trial++ {
		x := randVec(rng, 40)
		y := randVec(rng, 40)
		a, b := rng.NormFloat64(), rng.NormFloat64()
		mix := make([]float64, 40)
		for i := range mix {
			mix[i] = a*x[i] + b*y[i]
		}
		fx, fy, fm := make([]float64, 40), make([]float64, 40), make([]float64, 40)
		p.Forward(fx, x)
		p.Forward(fy, y)
		p.Forward(fm, mix)
		for i := range fm {
			want := a*fx[i] + b*fy[i]
			if !approxEq(fm[i], want, 1e-9) {
				t.Fatalf("linearity violated at %d: %g want %g", i, fm[i], want)
			}
		}
	}
}

func TestDCTConstantSignal(t *testing.T) {
	n := 64
	p := NewPlan(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = 3.5
	}
	out := make([]float64, n)
	p.Forward(out, x)
	if !approxEq(out[0], 3.5*math.Sqrt(float64(n)), 1e-9) {
		t.Errorf("DC coefficient = %g, want %g", out[0], 3.5*math.Sqrt(float64(n)))
	}
	for k := 1; k < n; k++ {
		if !approxEq(out[k], 0, 1e-9) {
			t.Errorf("AC coefficient %d = %g, want 0", k, out[k])
		}
	}
}

// TestDCTPureCosine checks that a single cosine mode concentrates all energy
// in one coefficient — the sparsity premise of OSCAR.
func TestDCTPureCosine(t *testing.T) {
	n := 100
	p := NewPlan(n)
	for _, mode := range []int{1, 3, 17, 49} {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Cos(math.Pi * (2*float64(i) + 1) * float64(mode) / (2 * float64(n)))
		}
		out := make([]float64, n)
		p.Forward(out, x)
		for k := range out {
			if k == mode {
				if math.Abs(out[k]) < 1 {
					t.Errorf("mode %d: coefficient too small: %g", mode, out[k])
				}
				continue
			}
			if !approxEq(out[k], 0, 1e-9) {
				t.Errorf("mode %d: leakage at %d: %g", mode, k, out[k])
			}
		}
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {12, 15}, {50, 100}, {144, 225}} {
		rows, cols := shape[0], shape[1]
		p := NewPlanND([]int{rows, cols})
		x := randVec(rng, rows*cols)
		y := make([]float64, rows*cols)
		p.Forward(y, x)
		back := make([]float64, rows*cols)
		p.Inverse(back, y)
		for i := range x {
			if !approxEq(back[i], x[i], 1e-8) {
				t.Fatalf("%dx%d: roundtrip[%d]=%g want %g", rows, cols, i, back[i], x[i])
			}
		}
	}
}

func TestPlan2DMatchesSeparableDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows, cols := 6, 9
	p := NewPlanND([]int{rows, cols})
	x := randVec(rng, rows*cols)
	got := make([]float64, rows*cols)
	p.Forward(got, x)

	// Direct separable reference: DCT rows, then columns.
	tmp := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		copy(tmp[r*cols:(r+1)*cols], ForwardDirect(x[r*cols:(r+1)*cols]))
	}
	want := make([]float64, rows*cols)
	col := make([]float64, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = tmp[r*cols+c]
		}
		fc := ForwardDirect(col)
		for r := 0; r < rows; r++ {
			want[r*cols+c] = fc[r]
		}
	}
	for i := range got {
		if !approxEq(got[i], want[i], 1e-9) {
			t.Fatalf("2-D DCT[%d]=%g want %g", i, got[i], want[i])
		}
	}
}

func TestPlan2DIsometry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewPlanND([]int{17, 23})
	x := randVec(rng, 17*23)
	y := make([]float64, len(x))
	p.Forward(y, x)
	var n1, n2 float64
	for i := range x {
		n1 += x[i] * x[i]
		n2 += y[i] * y[i]
	}
	if math.Abs(n1-n2) > 1e-8*n1 {
		t.Fatalf("2-D isometry violated: %g vs %g", n1, n2)
	}
}

// TestPlan2DParallelBitIdentical is the sharded-solver contract on 2-D
// shapes: a parallel plan must produce bit-for-bit the serial plan's output
// for every worker count, both directions, on grids above and below the
// serial fallback.
func TestPlan2DParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][2]int{{50, 100}, {64, 64}, {70, 90}, {1, 8192}, {4096, 1}, {3, 5}}
	for _, shape := range shapes {
		rows, cols := shape[0], shape[1]
		serial := NewPlanND([]int{rows, cols})
		x := randVec(rng, rows*cols)
		wantF := make([]float64, rows*cols)
		serial.Forward(wantF, x)
		wantI := make([]float64, rows*cols)
		serial.Inverse(wantI, x)
		for _, workers := range []int{0, 2, 3, 4, 8} {
			par := NewPlanNDWorkers([]int{rows, cols}, workers)
			gotF := make([]float64, rows*cols)
			par.Forward(gotF, x)
			gotI := make([]float64, rows*cols)
			par.Inverse(gotI, x)
			for i := range wantF {
				if gotF[i] != wantF[i] {
					t.Fatalf("%dx%d workers=%d: Forward[%d]=%v, serial %v", rows, cols, workers, i, gotF[i], wantF[i])
				}
				if gotI[i] != wantI[i] {
					t.Fatalf("%dx%d workers=%d: Inverse[%d]=%v, serial %v", rows, cols, workers, i, gotI[i], wantI[i])
				}
			}
		}
	}
}

// TestPlan2DDegenerateAxisMatches1D: a 1xN (or Nx1) plan must equal the 1-D
// plan bitwise — the length-1 pass on the degenerate axis is the exact
// identity and is skipped.
func TestPlan2DDegenerateAxisMatches1D(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 7, 100, 5000} {
		x := randVec(rng, n)
		want := make([]float64, n)
		NewPlan(n).Forward(want, x)
		for _, shape := range [][2]int{{1, n}, {n, 1}} {
			p := NewPlanND([]int{shape[0], shape[1]})
			got := make([]float64, n)
			p.Forward(got, x)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%dx%d: Forward[%d]=%v, 1-D plan %v", shape[0], shape[1], i, got[i], want[i])
				}
			}
			back := make([]float64, n)
			p.Inverse(back, got)
			for i := range back {
				if !approxEq(back[i], x[i], 1e-9) {
					t.Fatalf("%dx%d: roundtrip[%d]=%g want %g", shape[0], shape[1], i, back[i], x[i])
				}
			}
		}
	}
}

// TestPlan2DSerialFallback pins the small-grid rule on 2-D shapes: under
// 4096 points a parallel plan degrades to one worker.
func TestPlan2DSerialFallback(t *testing.T) {
	if w := NewPlanNDWorkers([]int{10, 10}, 8).Workers(); w != 1 {
		t.Errorf("10x10 plan reports %d workers, want serial fallback 1", w)
	}
	if w := NewPlanNDWorkers([]int{63, 65}, 8).Workers(); w != 1 {
		t.Errorf("63x65 (4095 pts) plan reports %d workers, want 1", w)
	}
	if w := NewPlanNDWorkers([]int{64, 64}, 8).Workers(); w != 8 {
		t.Errorf("64x64 plan reports %d workers, want 8", w)
	}
	// Worker count never exceeds the longer grid side.
	if w := NewPlanNDWorkers([]int{2, 4096}, 16384).Workers(); w > 4096 {
		t.Errorf("2x4096 plan reports %d workers, want <= 4096", w)
	}
	if NewPlanNDWorkers([]int{64, 64}, 0).Workers() < 1 {
		t.Error("workers=0 must resolve to at least one worker")
	}
}

// TestPlan2DParallelReuse exercises a parallel 2-D plan repeatedly (the FISTA
// loop's access pattern) to shake out scratch-buffer sharing bugs under the
// race detector.
func TestPlan2DParallelReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := NewPlanNDWorkers([]int{50, 100}, 4)
	x := randVec(rng, 5000)
	first := make([]float64, 5000)
	p.Forward(first, x)
	for trial := 0; trial < 10; trial++ {
		got := make([]float64, 5000)
		p.Forward(got, x)
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: Forward[%d] drifted: %v vs %v", trial, i, got[i], first[i])
			}
		}
	}
}

func TestPlanPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewPlan(0)
}

func TestPlan2DPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape 0x5")
		}
	}()
	NewPlanND([]int{0, 5})
}

func BenchmarkDCTFFT1024(b *testing.B) {
	p := NewPlan(1024)
	x := randVec(rand.New(rand.NewSource(1)), 1024)
	out := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(out, x)
	}
}

func BenchmarkDCTDirect1024(b *testing.B) {
	x := randVec(rand.New(rand.NewSource(1)), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForwardDirect(x)
	}
}
