package mat

// Matrix-multiply kernels behind MulInto, and the row-update primitives
// every inner loop of the package runs on.
//
// The naive kernel is the original i-k-j loop with a zero-skip on a's
// entries; it wins on the small, structurally sparse generator blocks of the
// paper's default model (order ~20). The blocked kernel targets the larger
// dense blocks produced by the Extension and Scalability sweeps: it tiles the
// output columns so the destination row stays cache-hot, and unrolls the k
// loop 4-way so each destination element is loaded and stored once per four
// accumulations instead of once per one.
//
// Both kernels, LU elimination, the tiled and vector substitutions and the
// row-vector products spend their time in four row updates:
//
//	madd4: dst[j] = (((dst[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//	msub4: the same with every term subtracted
//	madd1: dst[j] += a·b[j]
//	msub1: dst[j] -= a·b[j]
//
// On amd64 CPUs with AVX2 (and OS support for the YMM state, checked once
// at start-up) rows of at least minAVX2Len elements run as assembly
// (kernels_amd64.s); shorter rows, and every row elsewhere, run the Go loops
// in kernels_generic.go. Kernels reports which set runs.
//
// Determinism contract: for every output element the products apply in
// strictly ascending k order (descending j in back substitution), each
// product rounded before the add or subtract that applies it — no FMA, no
// reassociation. SIMD only spreads the work across j, so the assembly and
// generic kernels, and the naive and blocked multiplies, give bit-identical
// results (up to the sign of exact zeros between the naive and blocked
// multiplies, whose zero-skips differ). Tests in kernels_test.go pin this.

const (
	// blockedMulMin is the minimum inner dimension (a.cols) and output width
	// (b.cols) at which the blocked kernel pays for its bookkeeping. The
	// paper-default model solves blocks of order ~22, which stay on the naive
	// kernel; the Extension (two-priority) and Scalability (X = 50) sweeps
	// cross the threshold.
	blockedMulMin = 24
	// mulBlockJ is the output-column tile width in float64s (2 KiB per row
	// tile), sized so a destination tile plus four source rows stay in L1.
	mulBlockJ = 256
)

// mulIntoNaive is the zero-skipping triple loop for small or sparse operands.
func mulIntoNaive(m, a, b *Matrix) { mulIntoNaiveRows(m, a, b, 0, a.rows) }

// mulIntoNaiveRows is mulIntoNaive restricted to output rows [i0, i1) — the
// unit of work the row-banded parallel multiply distributes. Each output row
// is computed exactly as in the serial kernel, so banding never changes bits.
func mulIntoNaiveRows(m, a, b *Matrix, i0, i1 int) {
	for i := i0; i < i1; i++ {
		dst := m.a[i*m.cols : (i+1)*m.cols]
		clear(dst)
		for k := 0; k < a.cols; k++ {
			if aik := a.a[i*a.cols+k]; aik != 0 {
				madd1(dst, aik, b.a[k*b.cols:(k+1)*b.cols])
			}
		}
	}
}

// mulIntoBlocked is the column-tiled, 4-way k-unrolled kernel for large
// dense operands.
func mulIntoBlocked(m, a, b *Matrix) { mulIntoBlockedRows(m, a, b, 0, a.rows) }

// mulIntoBlockedRows is mulIntoBlocked restricted to output rows [i0, i1),
// for the row-banded parallel multiply. Per output row the arithmetic is the
// serial kernel's, so banding never changes bits.
//
// Rows advance in pairs: the four b rows of each k quad are read for both
// output rows back to back, so they stay in L1 for the second. Each output
// row still applies its products in strictly ascending k order as four
// separate accumulations (one madd4 per quad) and skips exactly the quads
// whose four coefficients are zero — pairing changes which row computes
// next, never the order within a row, so results are bit-identical to the
// single-row kernel (pinned by tests).
func mulIntoBlockedRows(m, a, b *Matrix, i0, i1 int) {
	inner, width := a.cols, b.cols
	for jt := 0; jt < width; jt += mulBlockJ {
		jhi := min(jt+mulBlockJ, width)
		i := i0
		for ; i+1 < i1; i += 2 {
			dst0, dst1 := m.tileRow(i, jt, jhi), m.tileRow(i+1, jt, jhi)
			clear(dst0)
			clear(dst1)
			arow0 := a.a[i*inner : (i+1)*inner]
			arow1 := a.a[(i+1)*inner : (i+2)*inner]
			k := 0
			for ; k+3 < inner; k += 4 {
				c0 := (*[4]float64)(arow0[k : k+4])
				c1 := (*[4]float64)(arow1[k : k+4])
				zero0, zero1 := isZero4(c0), isZero4(c1)
				if zero0 && zero1 {
					continue
				}
				b0, b1, b2, b3 := b.tileRows4(k, 1, jt, jhi)
				if !zero0 {
					madd4(dst0, c0, b0, b1, b2, b3)
				}
				if !zero1 {
					madd4(dst1, c1, b0, b1, b2, b3)
				}
			}
			for ; k < inner; k++ {
				brow := b.tileRow(k, jt, jhi)
				if v := arow0[k]; v != 0 {
					madd1(dst0, v, brow)
				}
				if v := arow1[k]; v != 0 {
					madd1(dst1, v, brow)
				}
			}
		}
		for ; i < i1; i++ {
			dst := m.tileRow(i, jt, jhi)
			clear(dst)
			arow := a.a[i*inner : (i+1)*inner]
			k := 0
			for ; k+3 < inner; k += 4 {
				if c := (*[4]float64)(arow[k : k+4]); !isZero4(c) {
					b0, b1, b2, b3 := b.tileRows4(k, 1, jt, jhi)
					madd4(dst, c, b0, b1, b2, b3)
				}
			}
			for ; k < inner; k++ {
				if v := arow[k]; v != 0 {
					madd1(dst, v, b.tileRow(k, jt, jhi))
				}
			}
		}
	}
}

// tileRow returns columns [j0, j1) of row i.
func (m *Matrix) tileRow(i, j0, j1 int) []float64 { return m.a[i*m.cols+j0 : i*m.cols+j1] }

// tileRows4 returns columns [j0, j1) of rows i, i+d, i+2d and i+3d — the
// four source rows of a madd4/msub4 quad (d = -1 walks upwards).
func (m *Matrix) tileRows4(i, d, j0, j1 int) (r0, r1, r2, r3 []float64) {
	p, s := i*m.cols, d*m.cols
	return m.a[p+j0 : p+j1], m.a[p+s+j0 : p+s+j1], m.a[p+2*s+j0 : p+2*s+j1], m.a[p+3*s+j0 : p+3*s+j1]
}

// isZero4 reports whether all four coefficients of a quad compare equal to
// zero (either sign) — the quads every kernel skips.
func isZero4(c *[4]float64) bool { return c[0] == 0 && c[1] == 0 && c[2] == 0 && c[3] == 0 }
