package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestBlockedMatchesNaive compares mulIntoBlocked against mulIntoNaive
// directly at sizes straddling blockedMulMin, including rectangular shapes
// and sparse operands. The blocked kernel accumulates each output element in
// the same k-ascending order as the naive one, so the results must agree to
// 1e-15 (in practice bit-for-bit).
func TestBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := []struct{ m, k, n int }{
		{4, 4, 4},
		{8, 8, 8},
		{23, 23, 23},
		{24, 24, 24},
		{25, 25, 25},
		{40, 40, 40},
		{64, 64, 64},
		{23, 25, 24}, // straddles the threshold in every dimension
		{30, 7, 50},  // short inner dimension exercises the k tail loop
		{5, 60, 33},  // long inner dimension, many unrolled k quads
	}
	for _, sh := range shapes {
		for _, sparsity := range []float64{0, 0.4, 0.95} {
			a := randMat(rng, sh.m, sh.k, sparsity)
			b := randMat(rng, sh.k, sh.n, sparsity)
			want := New(sh.m, sh.n)
			mulIntoNaive(want, a, b)
			got := New(sh.m, sh.n)
			mulIntoBlocked(got, a, b)
			requireClose(t, got, want, 1e-15, "blocked vs naive")

			// And through the public dispatching entry point.
			pub := New(sh.m, sh.n)
			pub.MulInto(a, b)
			requireClose(t, pub, want, 1e-15, "MulInto dispatch")
		}
	}
}

// TestBlockedWideOutput exercises output widths beyond one j-tile so the
// tiling loop itself runs more than once.
func TestBlockedWideOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randMat(rng, 8, 16, 0.1)
	b := randMat(rng, 16, mulBlockJ+37, 0.1)
	want := New(8, mulBlockJ+37)
	mulIntoNaive(want, a, b)
	got := New(8, mulBlockJ+37)
	mulIntoBlocked(got, a, b)
	requireClose(t, got, want, 1e-15, "blocked wide output")
}

func benchmarkMulKernel(b *testing.B, n int, kernel func(dst, x, y *Matrix)) {
	rng := rand.New(rand.NewSource(29))
	x := randMat(rng, n, n, 0)
	y := randMat(rng, n, n, 0)
	dst := New(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, x, y)
	}
}

func BenchmarkMulIntoNaive64(b *testing.B)    { benchmarkMulKernel(b, 64, mulIntoNaive) }
func BenchmarkMulIntoBlocked64(b *testing.B)  { benchmarkMulKernel(b, 64, mulIntoBlocked) }
func BenchmarkMulIntoNaive128(b *testing.B)   { benchmarkMulKernel(b, 128, mulIntoNaive) }
func BenchmarkMulIntoBlocked128(b *testing.B) { benchmarkMulKernel(b, 128, mulIntoBlocked) }

func BenchmarkInverseInto64(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	a := diagDominant(rng, 64)
	f := NewLU(64)
	dst := New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FactorizeInto(f, a); err != nil {
			b.Fatal(err)
		}
		f.InverseInto(dst)
	}
}

// kernelSpecials are the operands the kernel tests mix into their inputs:
// signed zeros, the smallest and largest subnormals, the smallest normal,
// infinities, NaN, and magnitudes near both ends of the exponent range.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, 1e-300, -1e300, 1.7976931348623157e308, 0.1, 3,
}

// kernelGuard fills the slack after each destination so the tests catch a
// kernel that writes past len(dst).
const kernelGuard = -12345.678

// kernelSet is one implementation of the four row-update primitives.
type kernelSet struct {
	name         string
	madd4, msub4 func(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64)
	madd1, msub1 func(dst []float64, a float64, b []float64)
}

// kernelSetsUnderTest are the implementations checked against the generic
// loops: the dispatching entry points the package calls, plus (appended by
// kernels_amd64_test.go on AVX2 hosts) the raw assembly at every length,
// including those the dispatchers leave to the generic loops.
var kernelSetsUnderTest = []kernelSet{{"dispatch", madd4, msub4, madd1, msub1}}

// checkKernels runs each row-update primitive of every set under test and
// its generic loop on copies of dst, and requires the two results to be
// equal bit for bit (math.Float64bits, so signed zeros count). The one
// exception is a NaN result, which matches any NaN: Go leaves the sign and
// payload of a NaN unspecified — the compiler orders the operands of a
// commutative add or multiply freely, even within one loop, and x86
// propagates the first operand's NaN — so the generic loop does not pin them.
// The check also requires that nothing is written past len(dst).
func checkKernels(t testing.TB, dst []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	t.Helper()
	n := len(dst)
	for _, ks := range kernelSetsUnderTest {
		kernels := []struct {
			name      string
			fast, ref func(d []float64)
		}{
			{"madd4", func(d []float64) { ks.madd4(d, a, b0, b1, b2, b3) },
				func(d []float64) { madd4Generic(d, a, b0, b1, b2, b3) }},
			{"msub4", func(d []float64) { ks.msub4(d, a, b0, b1, b2, b3) },
				func(d []float64) { msub4Generic(d, a, b0, b1, b2, b3) }},
			{"madd1", func(d []float64) { ks.madd1(d, a[0], b0) },
				func(d []float64) { madd1Generic(d, a[0], b0) }},
			{"msub1", func(d []float64) { ks.msub1(d, a[1], b1) },
				func(d []float64) { msub1Generic(d, a[1], b1) }},
		}
		for _, k := range kernels {
			got := append(append(make([]float64, 0, n+1), dst...), kernelGuard)
			want := append([]float64(nil), got...)
			k.fast(got[:n])
			k.ref(want[:n])
			for j := range got {
				if math.IsNaN(got[j]) && math.IsNaN(want[j]) {
					continue
				}
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s (%s, %s kernels), n=%d, j=%d: got %v (%#016x), want %v (%#016x)",
						k.name, ks.name, Kernels(), n, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestKernelsBitIdenticalToGeneric compares every row-update primitive with
// its generic loop at every length from 0 to 67 (so each unrolled body and
// every tail length runs), at every start offset modulo a 32-byte vector,
// on finite inputs spread over many magnitudes and on inputs salted with
// signed zeros, subnormals, infinities and NaN.
func TestKernelsBitIdenticalToGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	draw := func(special bool) float64 {
		if special && rng.Intn(3) == 0 {
			return kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
		return (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(41)-20))
	}
	// row returns a length-n view at offset off into a fresh buffer, so the
	// view starts at every alignment modulo 32 bytes as off runs over 0..3.
	row := func(off, n int, special bool) []float64 {
		buf := make([]float64, off+n+1)
		for j := range buf {
			buf[j] = draw(special)
		}
		return buf[off : off+n]
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				a := [4]float64{draw(special), draw(special), draw(special), draw(special)}
				// The source rows start at other offsets than dst, as the
				// kernels' callers' rows do.
				checkKernels(t, row(off, n, special), &a,
					row((off+1)%4, n, special), row((off+2)%4, n, special),
					row((off+3)%4, n, special), row(off, n+5, special))
			}
		}
	}
}

// FuzzKernels drives the bit-identity check with arbitrary operands. data
// supplies five equal-length vectors (dst, b0..b3) as raw little-endian
// float64 bits, so every NaN payload, subnormal and infinity can occur; its
// length also sets the vector length, and the first byte picks the start
// offset of dst within its buffer.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, 1.0, 2.0, 3.0, 4.0)
	f.Add(make([]byte, 1+5*8*7), -0.0, 5e-324, math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, a0, a1, a2, a3 float64) {
		off := 0
		if len(data) > 0 {
			off, data = int(data[0]%4), data[1:]
		}
		n := len(data) / 40
		vec := func(k, pad int) []float64 {
			v := make([]float64, pad+n+1)
			for j := 0; j < n; j++ {
				v[pad+j] = math.Float64frombits(binary.LittleEndian.Uint64(data[(k*n+j)*8:]))
			}
			return v[pad : pad+n]
		}
		a := [4]float64{a0, a1, a2, a3}
		checkKernels(t, vec(0, off), &a, vec(1, 0), vec(2, 1), vec(3, 2), vec(4, 3))
	})
}
