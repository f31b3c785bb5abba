//go:build amd64

package mat

// useAVX2 selects the assembly kernels in kernels_amd64.s. It is fixed at
// start-up: the CPU must report AVX2 and the OS must save the YMM state.
var useAVX2 = hasAVX2()

// hasAVX2 reports CPUID.7.0:EBX.AVX2 together with OS support for the YMM
// registers: CPUID.1:ECX.OSXSAVE and AVX, and XCR0 bits 1 (SSE) and 2 (AVX).
func hasAVX2() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// Kernels reports the row-update kernel set this process runs: "avx2" or
// "generic".
func Kernels() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// minAVX2Len is the shortest row the assembly takes. Below it the call,
// the spill of its stack arguments and VZEROUPPER cost more than the vector
// lanes save: on a Sapphire Rapids VM the AVX2 madd1 and madd4 break even
// with the generic loops at 4–6 elements and win from 8 on. Both paths give
// the same bits, so the cut-off only moves time.
const minAVX2Len = 8

// The dispatchers reslice each source row to len(dst) before the assembly
// runs, so a short row panics in Go instead of being read past its end.

func madd4(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	if n := len(dst); useAVX2 && n >= minAVX2Len {
		madd4AVX2(dst, a, b0[:n], b1[:n], b2[:n], b3[:n])
		return
	}
	madd4Generic(dst, a, b0, b1, b2, b3)
}

func msub4(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	if n := len(dst); useAVX2 && n >= minAVX2Len {
		msub4AVX2(dst, a, b0[:n], b1[:n], b2[:n], b3[:n])
		return
	}
	msub4Generic(dst, a, b0, b1, b2, b3)
}

func madd1(dst []float64, a float64, b []float64) {
	if useAVX2 && len(dst) >= minAVX2Len {
		madd1AVX2(dst, a, b[:len(dst)])
		return
	}
	madd1Generic(dst, a, b)
}

func msub1(dst []float64, a float64, b []float64) {
	if useAVX2 && len(dst) >= minAVX2Len {
		msub1AVX2(dst, a, b[:len(dst)])
		return
	}
	msub1Generic(dst, a, b)
}

//go:noescape
func madd4AVX2(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64)

//go:noescape
func msub4AVX2(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64)

//go:noescape
func madd1AVX2(dst []float64, a float64, b []float64)

//go:noescape
func msub1AVX2(dst []float64, a float64, b []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
