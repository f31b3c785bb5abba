package mat

import (
	"math"
	"math/rand"
	"testing"

	"bgperf/internal/raceflag"
)

// zeroSomeCols returns a copy of b with every third column (and column 1)
// set to exact zero.
func zeroSomeCols(b *Matrix) *Matrix {
	out := b.Clone()
	for i := 0; i < out.rows; i++ {
		for j := 0; j < out.cols; j++ {
			if j%3 == 0 || j == 1 {
				out.Set(i, j, 0)
			}
		}
	}
	return out
}

func TestNonzeroColsInto(t *testing.T) {
	m := MustFromRows([][]float64{
		{0, 1, 0, 0, 0},
		{0, 0, 0, -2, 0},
		{0, 3, 0, 0, 0},
	})
	got := m.NonzeroColsInto(make([]int, 5))
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("NonzeroColsInto = %v, want [1 3]", got)
	}
	if got := New(3, 4).NonzeroColsInto(make([]int, 4)); len(got) != 0 {
		t.Fatalf("zero matrix has nonzero columns %v", got)
	}
	dense := MustFromRows([][]float64{{1, 2}, {3, 4}})
	if got := dense.NonzeroColsInto(make([]int, 2)); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("dense NonzeroColsInto = %v, want [0 1]", got)
	}
}

func TestViewOfSharesStorage(t *testing.T) {
	backing := New(4, 4)
	var v Matrix
	v.ViewOf(backing, 4, 2).Set(3, 1, 7)
	if v.Rows() != 4 || v.Cols() != 2 || backing.a[7] != 7 {
		t.Fatalf("view %dx%d did not write through to element 7 of the backing store", v.Rows(), v.Cols())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ViewOf larger than the backing store did not panic")
		}
	}()
	v.ViewOf(backing, 4, 5)
}

// TestSetAndAddCols checks the set/add pair against a full-width reference
// built by hand: columns outside the set keep their values.
func TestSetAndAddCols(t *testing.T) {
	src := MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	cols := []int{1, 3}
	dst := MustFromRows([][]float64{{9, 9, 9, 9}, {9, 9, 9, 9}, {9, 9, 9, 9}})
	dst.SetCols(src, cols)
	want := MustFromRows([][]float64{{9, 1, 9, 2}, {9, 3, 9, 4}, {9, 5, 9, 6}})
	if !dst.Equalf(want, 0) {
		t.Fatalf("SetCols = %v, want %v", dst, want)
	}
	dst.AddCols(src, cols)
	want = MustFromRows([][]float64{{9, 2, 9, 4}, {9, 6, 9, 8}, {9, 10, 9, 12}})
	if !dst.Equalf(want, 0) {
		t.Fatalf("AddCols = %v, want %v", dst, want)
	}
}

// TestSolveColsIntoBitIdentical pins the compacted solve to the full-width
// one: each column of SolveColsInto equals, bit for bit, the matching column
// of SolveMatInto, for widths that straddle the substitution tile.
func TestSolveColsIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 33, 70} {
		f, err := Factorize(randomSparseDominant(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		b := zeroSomeCols(randomSparseDominant(rng, n))
		full := f.SolveMat(b)
		cols := b.NonzeroColsInto(make([]int, n))
		got := f.SolveColsInto(New(n, len(cols)), b, cols)
		for i := 0; i < n; i++ {
			for c, j := range cols {
				if g, w := got.At(i, c), full.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n=%d: column %d row %d: %v vs full-width %v", n, j, i, g, w)
				}
			}
		}
	}
}

// TestSolveLeftVecInto checks x·A = b against the transpose-and-solve
// reference, including the aliased dst == b form. A is a plain Gaussian
// matrix, so partial pivoting permutes rows and the unpermuting step is
// exercised.
func TestSolveLeftVecInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 4, 37} {
		a := New(n, n)
		for i := range a.a {
			a.a[i] = rng.NormFloat64()
		}
		f, err := Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		permuted := false
		for i, p := range f.piv {
			permuted = permuted || p != i
		}
		if n > 1 && !permuted {
			t.Fatalf("n=%d: factorization did not pivot; the test no longer covers unpermuting", n)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := SolveLeft(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got := f.SolveLeftVecInto(make([]float64, n), b)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		// Residual check: x·A reproduces b.
		back := a.VecMul(got)
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-10*(1+math.Abs(b[i])) {
				t.Fatalf("n=%d: (x·A)[%d] = %v, want %v", n, i, back[i], b[i])
			}
		}
		f.SolveLeftVecInto(b, b)
		for i := range got {
			if math.Float64bits(b[i]) != math.Float64bits(got[i]) {
				t.Fatalf("n=%d: aliased solve differs at %d", n, i)
			}
		}
	}
}

// TestColumnHelpersZeroAlloc pins the helpers the cyclic-reduction step
// calls every iteration as allocation-free.
func TestColumnHelpersZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	n := 40
	f, err := Factorize(randomSparseDominant(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	b := zeroSomeCols(randomSparseDominant(rng, n))
	idx := make([]int, n)
	x, p, dst := New(n, n), New(n, n), New(n, n)
	var xv, pv Matrix
	vec := make([]float64, n)
	allocs := testing.AllocsPerRun(20, func() {
		cols := b.NonzeroColsInto(idx)
		xc := f.SolveColsInto(xv.ViewOf(x, n, len(cols)), b, cols)
		pc := pv.ViewOf(p, n, len(cols))
		pc.MulInto(b, xc)
		dst.SetCols(pc, cols)
		dst.AddCols(pc, cols)
		f.SolveLeftVecInto(vec, vec)
	})
	if allocs != 0 {
		t.Fatalf("column helpers allocated %.0f times per run, want 0", allocs)
	}
}
