package dct

import (
	"math"
	"math/rand"
	"testing"
)

// applyAxisDirect transforms every line of x along axis k of dims with the
// direct O(n^2) reference transform, using the same strided line enumeration
// PlanND documents.
func applyAxisDirect(x []float64, dims []int, k int, forward bool) {
	n := dims[k]
	stride := 1
	for i := k + 1; i < len(dims); i++ {
		stride *= dims[i]
	}
	size := len(x)
	lines := size / n
	buf := make([]float64, n)
	for l := 0; l < lines; l++ {
		base := (l/stride)*stride*n + l%stride
		for i := 0; i < n; i++ {
			buf[i] = x[base+i*stride]
		}
		var out []float64
		if forward {
			out = ForwardDirect(buf)
		} else {
			out = InverseDirect(buf)
		}
		for i := 0; i < n; i++ {
			x[base+i*stride] = out[i]
		}
	}
}

// ndDirect is the separable ND reference: one direct pass per axis, last to
// first, matching PlanND's documented pass order.
func ndDirect(src []float64, dims []int, forward bool) []float64 {
	out := append([]float64(nil), src...)
	for k := len(dims) - 1; k >= 0; k-- {
		applyAxisDirect(out, dims, k, forward)
	}
	return out
}

// ndShapes enumerates 1- to 4-axis shapes over the {1, 8, 64} axis lengths
// the issue calls out, trimmed to keep the direct reference fast.
func ndShapes() [][]int {
	return [][]int{
		{1}, {8}, {64},
		{1, 8}, {8, 8}, {64, 8}, {8, 64}, {1, 64},
		{1, 8, 8}, {8, 1, 8}, {8, 8, 1}, {8, 8, 8}, {64, 8, 8},
		{1, 8, 8, 8}, {8, 1, 8, 1}, {8, 8, 8, 8},
	}
}

// TestPlanNDMatchesSeparableDirect pins PlanND to the axis-by-axis direct
// reference on 1- to 4-axis shapes, forward and inverse.
func TestPlanNDMatchesSeparableDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range ndShapes() {
		p := NewPlanND(dims)
		src := make([]float64, p.Size())
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		for _, forward := range []bool{true, false} {
			got := make([]float64, len(src))
			want := ndDirect(src, dims, forward)
			if forward {
				p.Forward(got, src)
			} else {
				p.Inverse(got, src)
			}
			for i := range got {
				if !approxEq(got[i], want[i], 1e-9*float64(len(src))) {
					t.Fatalf("dims %v forward=%v: [%d] = %g, want %g", dims, forward, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanNDRoundTrip: Inverse(Forward(x)) == x on every shape.
func TestPlanNDRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range ndShapes() {
		p := NewPlanND(dims)
		x := make([]float64, p.Size())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		fwd := make([]float64, len(x))
		p.Forward(fwd, x)
		back := make([]float64, len(x))
		p.Inverse(back, fwd)
		for i := range x {
			if !approxEq(back[i], x[i], 1e-8) {
				t.Fatalf("dims %v: round trip [%d] = %g, want %g", dims, i, back[i], x[i])
			}
		}
	}
}

// rowColumnSweep is the pre-ND 2-D transform: a 1-D plan over every row,
// then a 1-D plan over every column.
func rowColumnSweep(src []float64, rows, cols int, forward bool) []float64 {
	out := append([]float64(nil), src...)
	apply := func(p *Plan, dst, src []float64) {
		if forward {
			p.Forward(dst, src)
		} else {
			p.Inverse(dst, src)
		}
	}
	rp := NewPlan(cols)
	for r := 0; r < rows; r++ {
		row := out[r*cols : (r+1)*cols]
		apply(rp, row, row)
	}
	cp := NewPlan(rows)
	col := make([]float64, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = out[r*cols+c]
		}
		apply(cp, col, col)
		for r := 0; r < rows; r++ {
			out[r*cols+c] = col[r]
		}
	}
	return out
}

// TestPlanNDMatchesPlan2D: a 2-axis PlanND is the pre-ND 2-D plan's
// row-then-column sweep bit for bit, serial and sharded — the property the
// cs golden fixtures, captured on the 2-D solver, rely on.
func TestPlanNDMatchesPlan2D(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rows, cols := 48, 96 // above the serial floor so workers engage
	src := make([]float64, rows*cols)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	for _, forward := range []bool{true, false} {
		want := rowColumnSweep(src, rows, cols, forward)
		for _, workers := range []int{1, 3} {
			nd := NewPlanNDWorkers([]int{rows, cols}, workers)
			got := make([]float64, len(src))
			if forward {
				nd.Forward(got, src)
			} else {
				nd.Inverse(got, src)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers %d forward=%v: [%d] %g != %g", workers, forward, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanNDParallelBitIdentical: every worker count produces bit-identical
// output on a 3-axis grid above the serial floor.
func TestPlanNDParallelBitIdentical(t *testing.T) {
	dims := []int{24, 16, 20}
	rng := rand.New(rand.NewSource(44))
	src := make([]float64, 24*16*20)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	ref := make([]float64, len(src))
	NewPlanND(dims).Forward(ref, src)
	refInv := make([]float64, len(src))
	NewPlanND(dims).Inverse(refInv, src)
	for _, workers := range []int{2, 3, 5, 8, 0} {
		p := NewPlanNDWorkers(dims, workers)
		got := make([]float64, len(src))
		p.Forward(got, src)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers %d: forward [%d] %x != %x", workers, i,
					math.Float64bits(got[i]), math.Float64bits(ref[i]))
			}
		}
		p.Inverse(got, src)
		for i := range got {
			if got[i] != refInv[i] {
				t.Fatalf("workers %d: inverse [%d] differs", workers, i)
			}
		}
	}
}

// TestPlanNDIsometry: the orthonormal ND DCT preserves the l2 norm.
func TestPlanNDIsometry(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	dims := []int{6, 10, 7}
	p := NewPlanND(dims)
	x := make([]float64, p.Size())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, len(x))
	p.Forward(y, x)
	var nx, ny float64
	for i := range x {
		nx += x[i] * x[i]
		ny += y[i] * y[i]
	}
	if math.Abs(nx-ny) > 1e-8*nx {
		t.Fatalf("norm changed: %g -> %g", nx, ny)
	}
}

// TestPlanNDValidation: bad shapes panic, mismatched lengths panic.
func TestPlanNDValidation(t *testing.T) {
	for _, dims := range [][]int{nil, {}, {0}, {4, -1}, {4, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dims %v: no panic", dims)
				}
			}()
			NewPlanND(dims)
		}()
	}
	p := NewPlanND([]int{4, 4})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch: no panic")
			}
		}()
		p.Forward(make([]float64, 15), make([]float64, 16))
	}()
}

// TestPlanNDAllDegenerate: an all-ones shape is the identity transform.
func TestPlanNDAllDegenerate(t *testing.T) {
	p := NewPlanND([]int{1, 1, 1})
	src := []float64{3.25}
	dst := make([]float64, 1)
	p.Forward(dst, src)
	if dst[0] != 3.25 {
		t.Fatalf("degenerate forward = %g", dst[0])
	}
	p.Inverse(dst, dst)
	if dst[0] != 3.25 {
		t.Fatalf("degenerate inverse = %g", dst[0])
	}
}
