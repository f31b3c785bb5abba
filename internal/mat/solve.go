package mat

import (
	"fmt"
	"math"
)

// LU holds the LU factorization with partial pivoting of a square matrix:
// P·A = L·U, stored compactly in lu with the pivot sequence in piv. The
// scratch buffers make the *Into solvers allocation-free, so one LU reused
// via FactorizeInto amortizes to zero allocations per factorization.
type LU struct {
	lu      *Matrix
	piv     []int
	sign    int
	scratch []float64 // permutation staging for SolveVecInto
}

// NewLU returns an n×n factorization shell with all buffers preallocated,
// ready for FactorizeInto.
func NewLU(n int) *LU {
	return &LU{
		lu:      New(n, n),
		piv:     make([]int, n),
		sign:    1,
		scratch: make([]float64, n),
	}
}

// Factorize computes the LU factorization with partial pivoting of the square
// matrix a. It returns ErrSingular when a pivot underflows working precision.
func Factorize(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := FactorizeInto(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorizeInto factorizes a into f, reusing f's storage and pivot buffers
// when their size matches (and growing them otherwise). a is not modified.
// On ErrSingular the contents of f are unspecified but f remains reusable.
func FactorizeInto(f *LU, a *Matrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("%w: LU of %dx%d matrix", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	if f.lu == nil || f.lu.rows != n {
		f.lu = New(n, n)
		f.piv = make([]int, n)
		f.scratch = make([]float64, n)
	}
	copy(f.lu.a, a.a)
	lu, piv := f.lu, f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at or below the diagonal.
		p, mx := k, math.Abs(lu.a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.a[i*n+k]); v > mx {
				p, mx = i, v
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		if p != k {
			ri, rk := lu.a[p*n:(p+1)*n], lu.a[k*n:(k+1)*n]
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := lu.a[k*n+k]
		// Eliminate below the pivot, skipping rows whose factor is zero.
		// Every updated element receives exactly one update per pivot.
		rk := lu.a[k*n+k+1 : (k+1)*n]
		for i := k + 1; i < n; i++ {
			fac := lu.a[i*n+k] / pivVal
			lu.a[i*n+k] = fac
			if fac != 0 {
				msub1(lu.a[i*n+k+1:(i+1)*n], fac, rk)
			}
		}
	}
	f.sign = sign
	return nil
}

// SolveVec solves A·x = b for x, overwriting nothing; b is copied.
func (f *LU) SolveVec(b []float64) []float64 {
	x := make([]float64, f.lu.rows)
	return f.SolveVecInto(x, b)
}

// SolveVecInto solves A·x = b into dst and returns dst. dst may alias b.
func (f *LU) SolveVecInto(dst, b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	// Stage the permuted right-hand side through scratch so dst may alias b.
	s := f.ensureScratch()
	for i, p := range f.piv {
		s[i] = b[p]
	}
	copy(dst, s)
	// Forward substitution with unit lower-triangular L.
	for i := 1; i < n; i++ {
		row := f.lu.a[i*n : i*n+i]
		var s float64
		for j, v := range row {
			s += float64(v * dst[j])
		}
		dst[i] -= s
	}
	// Back substitution with U, accumulating in descending j order — the
	// direction the row-paired tile kernel shares its streamed x rows in, so
	// vector and tiled solves stay bit-identical.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.a[i*n : (i+1)*n]
		s := dst[i]
		for j := n - 1; j > i; j-- {
			s -= float64(row[j] * dst[j])
		}
		dst[i] = s / row[i]
	}
	return dst
}

// SolveMat solves A·X = B column by column and returns X.
func (f *LU) SolveMat(b *Matrix) *Matrix {
	x := New(f.lu.rows, b.cols)
	f.SolveMatInto(x, b)
	return x
}

// solveTileWidth is the number of right-hand-side columns the blocked
// substitution advances per pass. One pass reads each LU row once for the
// whole tile (instead of once per column), so the factor matrix streams
// through cache tileWidth× less often. 32 columns is a 256-byte tile row —
// four cache lines — which leaves room in L1 for the LU row being broadcast.
const solveTileWidth = 32

// substituteTile runs forward and back substitution on one column tile of the
// right-hand-side matrix x (already permuted), in place. Per column the
// arithmetic is exactly SolveVecInto's: the inner products accumulate into a
// separate accumulator — ascending j in the forward pass, descending j in the
// back pass, the directions that let each pass pair rows — so a tiled solve
// is bit-identical to a column-by-column solve. Like the blocked multiply
// kernel, the j loop advances four source rows per madd4/msub4 call — four
// separate in-order accumulations, never one reassociated sum — so the call
// and loop bookkeeping amortizes without changing any bits.
func (f *LU) substituteTile(x *Matrix, j0, j1 int) { f.substituteTileFrom(x, j0, j1, 0) }

// substituteTileFrom is substituteTile for a tile whose permuted right-hand
// side is known to be zero in every row above `start`. Rows i <= start keep
// their values (their forward results equal their inputs: all earlier y are
// zero), and every inner product skips the j < start terms, which are exact
// zeros — so the output is bit-identical to substituteTile, which is the
// start = 0 case. InverseInto passes the first pivot row that lands in the
// tile; for near-diagonal pivoting this removes about a third of the forward
// substitution work of a full inverse.
func (f *LU) substituteTileFrom(x *Matrix, j0, j1, start int) {
	n := f.lu.rows
	var accBuf, acc1Buf [solveTileWidth]float64
	acc, acc1 := accBuf[:j1-j0], acc1Buf[:j1-j0]
	// Forward substitution with unit lower-triangular L. Rows advance in
	// pairs (i, i+1): the shared prefix j < i streams each x row once for
	// both accumulator chains; row i then finishes, and row i+1 applies its
	// j = i term — the last index of its ascending-j sequence — against the
	// freshly solved x[i] before finishing. Quad grouping and pairing only
	// change which row accumulates next, never the per-row ascending order,
	// so the result is bit-identical to the single-row substitution.
	i := start + 1
	for ; i+1 < n; i += 2 {
		row0 := f.lu.a[i*n : i*n+i]
		row1 := f.lu.a[(i+1)*n : (i+1)*n+i+1]
		clear(acc)
		clear(acc1)
		j := start
		for ; j+3 < i; j += 4 {
			c0, c1 := (*[4]float64)(row0[j:j+4]), (*[4]float64)(row1[j:j+4])
			zero0, zero1 := isZero4(c0), isZero4(c1)
			if zero0 && zero1 {
				continue
			}
			x0, x1, x2, x3 := x.tileRows4(j, 1, j0, j1)
			if !zero0 {
				madd4(acc, c0, x0, x1, x2, x3)
			}
			if !zero1 {
				madd4(acc1, c1, x0, x1, x2, x3)
			}
		}
		for ; j < i; j++ {
			xrow := x.tileRow(j, j0, j1)
			if v := row0[j]; v != 0 {
				madd1(acc, v, xrow)
			}
			if v := row1[j]; v != 0 {
				madd1(acc1, v, xrow)
			}
		}
		dst := x.tileRow(i, j0, j1)
		subInPlace(dst, acc)
		if v := row1[i]; v != 0 {
			madd1(acc1, v, dst)
		}
		subInPlace(x.tileRow(i+1, j0, j1), acc1)
	}
	for ; i < n; i++ {
		row := f.lu.a[i*n : i*n+i]
		clear(acc)
		j := start
		for ; j+3 < i; j += 4 {
			if c := (*[4]float64)(row[j : j+4]); !isZero4(c) {
				x0, x1, x2, x3 := x.tileRows4(j, 1, j0, j1)
				madd4(acc, c, x0, x1, x2, x3)
			}
		}
		for ; j < i; j++ {
			if v := row[j]; v != 0 {
				madd1(acc, v, x.tileRow(j, j0, j1))
			}
		}
		subInPlace(x.tileRow(i, j0, j1), acc)
	}
	// Back substitution with U, in descending j order per row — the same
	// order as SolveVecInto. Rows retire in pairs (i, i−1): both share the
	// streamed x rows j > i; row i then finalizes, and row i−1 applies its
	// j = i term — the last index of its descending sequence — against the
	// freshly solved x[i] before finalizing. Quad grouping and pairing only
	// change which row accumulates next, never the per-row descending order,
	// so the result is bit-identical to the single-row substitution.
	i = n - 1
	for ; i-1 >= 0; i -= 2 {
		row1 := f.lu.a[i*n : (i+1)*n]
		row0 := f.lu.a[(i-1)*n : i*n]
		dst1 := x.tileRow(i, j0, j1)
		dst0 := x.tileRow(i-1, j0, j1)
		copy(acc1, dst1)
		copy(acc, dst0)
		j := n - 1
		for ; j-3 > i; j -= 4 {
			c1 := [4]float64{row1[j], row1[j-1], row1[j-2], row1[j-3]}
			c0 := [4]float64{row0[j], row0[j-1], row0[j-2], row0[j-3]}
			zero0, zero1 := isZero4(&c0), isZero4(&c1)
			if zero0 && zero1 {
				continue
			}
			x0, x1, x2, x3 := x.tileRows4(j, -1, j0, j1)
			if !zero1 {
				msub4(acc1, &c1, x0, x1, x2, x3)
			}
			if !zero0 {
				msub4(acc, &c0, x0, x1, x2, x3)
			}
		}
		for ; j > i; j-- {
			xrow := x.tileRow(j, j0, j1)
			if v := row1[j]; v != 0 {
				msub1(acc1, v, xrow)
			}
			if v := row0[j]; v != 0 {
				msub1(acc, v, xrow)
			}
		}
		divInto(dst1, acc1, row1[i])
		if v := row0[i]; v != 0 {
			msub1(acc, v, dst1)
		}
		divInto(dst0, acc, row0[i-1])
	}
	if i == 0 {
		row := f.lu.a[0:n]
		dst := x.tileRow(0, j0, j1)
		copy(acc, dst)
		j := n - 1
		for ; j-3 > 0; j -= 4 {
			if c := [4]float64{row[j], row[j-1], row[j-2], row[j-3]}; !isZero4(&c) {
				x0, x1, x2, x3 := x.tileRows4(j, -1, j0, j1)
				msub4(acc, &c, x0, x1, x2, x3)
			}
		}
		for ; j > 0; j-- {
			if v := row[j]; v != 0 {
				msub1(acc, v, x.tileRow(j, j0, j1))
			}
		}
		divInto(dst, acc, row[0])
	}
}

// subInPlace sets dst[c] -= s[c].
func subInPlace(dst, s []float64) {
	s = s[:len(dst)]
	for c := range dst {
		dst[c] -= s[c]
	}
}

// divInto sets dst[c] = s[c] / d.
func divInto(dst, s []float64, d float64) {
	s = s[:len(dst)]
	for c := range dst {
		dst[c] = s[c] / d
	}
}

// SolveMatInto solves A·X = B into dst and returns dst. dst must not alias b.
// The substitution runs over column tiles of the right-hand side — same
// per-column arithmetic as SolveVecInto (bit-identical results, pinned by
// tests), but each LU row is read once per tile instead of once per column.
func (f *LU) SolveMatInto(dst, b *Matrix) *Matrix {
	n := f.lu.rows
	if b.rows != n || dst.rows != n || dst.cols != b.cols {
		panic(ErrShape)
	}
	// Stage the row permutation: dst = P·B.
	for i, p := range f.piv {
		copy(dst.a[i*dst.cols:(i+1)*dst.cols], b.a[p*b.cols:(p+1)*b.cols])
	}
	f.substituteTiles(dst)
	return dst
}

// SolveColsInto solves A·X = B[:, cols] into dst and returns dst: the solve
// of the column subset cols of b, gathered while staging the row
// permutation, so no separate gather pass or buffer is needed. dst must be
// n×len(cols) and must not alias b. Substitution is column-independent, so
// each column of dst is bit-identical to the matching column of
// SolveMatInto(·, b) — the compacted cyclic-reduction step relies on this to
// skip b's zero columns without changing results.
func (f *LU) SolveColsInto(dst, b *Matrix, cols []int) *Matrix {
	n := f.lu.rows
	if b.rows != n || dst.rows != n || dst.cols != len(cols) {
		panic(ErrShape)
	}
	for i, p := range f.piv {
		src := b.a[p*b.cols : (p+1)*b.cols]
		drow := dst.a[i*dst.cols : (i+1)*dst.cols]
		for c, j := range cols {
			drow[c] = src[j]
		}
	}
	f.substituteTiles(dst)
	return dst
}

// substituteTiles runs the tiled substitution over every column tile of the
// permuted right-hand side x, in place.
func (f *LU) substituteTiles(x *Matrix) {
	for j0 := 0; j0 < x.cols; j0 += solveTileWidth {
		j1 := j0 + solveTileWidth
		if j1 > x.cols {
			j1 = x.cols
		}
		f.substituteTile(x, j0, j1)
	}
}

// SolveLeftVecInto solves the row-vector system x·A = b into dst and returns
// dst, reusing the factorization of A — no transpose or second
// factorization is needed. With P·A = L·U, it solves z·U = b, then y·L = z,
// and unpermutes x[piv[i]] = y[i]; both sweeps run along contiguous rows of
// the packed factor. dst may alias b.
func (f *LU) SolveLeftVecInto(dst, b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	w := f.ensureScratch()
	copy(w, b)
	// z·U = b, row-oriented: z[i] is final once every earlier row has
	// subtracted its contribution, which it then pushes into the later
	// entries along row i of U.
	for i := 0; i < n; i++ {
		row := f.lu.a[i*n : (i+1)*n]
		zi := w[i] / row[i]
		w[i] = zi
		if zi != 0 {
			msub1(w[i+1:], zi, row[i+1:])
		}
	}
	// y·L = z with unit lower-triangular L, last row first.
	for i := n - 1; i > 0; i-- {
		if yi := w[i]; yi != 0 {
			msub1(w[:i], yi, f.lu.a[i*n:i*n+i])
		}
	}
	for i, p := range f.piv {
		dst[p] = w[i]
	}
	return dst
}

// InverseInto writes A⁻¹ into dst, where f is the factorization of A, without
// allocating (beyond one-time growth of f's scratch buffers). dst must be
// n×n. Like SolveMatInto it substitutes over column tiles; the results are
// bit-identical to solving the identity column by column.
func (f *LU) InverseInto(dst *Matrix) *Matrix {
	n := f.lu.rows
	if dst.rows != n || dst.cols != n {
		panic(ErrShape)
	}
	// dst = P·I: row i of the permuted identity has a one in column piv[i].
	dst.Zero()
	for i, p := range f.piv {
		dst.a[i*n+p] = 1
	}
	for j0 := 0; j0 < n; j0 += solveTileWidth {
		j1 := j0 + solveTileWidth
		if j1 > n {
			j1 = n
		}
		// Every row of the permuted identity above the first pivot that
		// lands in this column tile is zero there, so the forward
		// substitution can begin at that row.
		start := 0
		for i, p := range f.piv {
			if p >= j0 && p < j1 {
				start = i
				break
			}
		}
		f.substituteTileFrom(dst, j0, j1, start)
	}
	return dst
}

func (f *LU) ensureScratch() []float64 {
	if len(f.scratch) != f.lu.rows {
		f.scratch = make([]float64, f.lu.rows)
	}
	return f.scratch
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	n := f.lu.rows
	d := float64(f.sign)
	for i := 0; i < n; i++ {
		d *= f.lu.a[i*n+i]
	}
	return d
}

// Solve solves the linear system a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}

// SolveLeft solves the row-vector system x·a = b, i.e. aᵀ·xᵀ = bᵀ.
func SolveLeft(a *Matrix, b []float64) ([]float64, error) {
	return Solve(a.Transpose(), b)
}

// Inverse returns a⁻¹ or ErrSingular.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	out := New(a.rows, a.rows)
	f.InverseInto(out)
	return out, nil
}

// SpectralRadius estimates the spectral radius of the entrywise-nonnegative
// matrix a by power iteration. For nonnegative matrices (the R and G matrices
// of QBD theory) the dominant eigenvalue is real and nonnegative, so power
// iteration converges; tol controls the relative change stopping criterion.
func SpectralRadius(a *Matrix, tol float64, maxIter int) float64 {
	n := a.rows
	if n == 0 {
		return 0
	}
	if n != a.cols {
		panic(ErrShape)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	prev := 0.0
	for it := 0; it < maxIter; it++ {
		y := a.MulVec(x)
		var norm float64
		for _, v := range y {
			if av := math.Abs(v); av > norm {
				norm = av
			}
		}
		if norm == 0 {
			return 0
		}
		for i := range y {
			y[i] /= norm
		}
		x = y
		if it > 0 && math.Abs(norm-prev) <= tol*math.Max(norm, 1e-300) {
			return norm
		}
		prev = norm
	}
	return prev
}

// Ones returns a length-n vector of ones.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	var s float64
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// Sum returns the sum of the entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// ScaleVec multiplies x by s in place and returns x.
func ScaleVec(x []float64, s float64) []float64 {
	for i := range x {
		x[i] *= s
	}
	return x
}
