//go:build amd64

package mat

import (
	"math"
	"math/rand"
	"testing"
)

func init() {
	if useAVX2 {
		kernelSetsUnderTest = append(kernelSetsUnderTest,
			kernelSet{"raw avx2", madd4AVX2, msub4AVX2, madd1AVX2, msub1AVX2})
	}
}

// TestAVX2SolverPathBitIdentical runs every operation that routes through
// the row-update kernels — both multiply kernels, the banded parallel
// multiply, the sparse multiply, LU, the tiled solves, the inverse, the
// left solve and the row-vector product — once on the AVX2 kernels and once
// on the generic loops, and requires bit-identical results. Orders 5 to 100
// put the products on both sides of blockedMulMin and the solves across
// ragged final tiles.
func TestAVX2SolverPathBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: only the generic kernels run")
	}
	run := func(avx bool) [][]float64 {
		useAVX2 = avx
		defer func() { useAVX2 = true }()
		rng := rand.New(rand.NewSource(43))
		var out [][]float64
		for _, n := range []int{5, 22, 37, 100} {
			a := randomSparseDominant(rng, n)
			b := randMat(rng, n, n+3, 0.3)
			prod := New(n, n+3)
			prod.MulInto(a, b)
			par := New(n, n+3)
			MulIntoWorkers(par, a, b, 3)
			sp := New(n, n+3)
			NewSparse(a).MulInto(sp, b)
			f, err := Factorize(a)
			if err != nil {
				t.Fatal(err)
			}
			inv := New(n, n)
			f.InverseInto(inv)
			x := New(n, n+3)
			f.SolveMatInto(x, b)
			cols := New(n, 2)
			f.SolveColsInto(cols, b, []int{n + 2, 1})
			left := f.SolveLeftVecInto(make([]float64, n), b.Row(0)[:n])
			out = append(out, prod.a, par.a, sp.a, f.lu.a, inv.a, x.a, cols.a, left, a.VecMul(left))
		}
		return out
	}
	got, want := run(true), run(false)
	for r := range want {
		for j := range want[r] {
			if math.Float64bits(got[r][j]) != math.Float64bits(want[r][j]) {
				t.Fatalf("result %d, entry %d: avx2 %v, generic %v", r, j, got[r][j], want[r][j])
			}
		}
	}
}
