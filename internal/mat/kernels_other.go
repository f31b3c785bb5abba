//go:build !amd64

package mat

// Kernels reports the row-update kernel set this process runs; without the
// amd64 assembly it is always "generic".
func Kernels() string { return "generic" }

func madd4(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	madd4Generic(dst, a, b0, b1, b2, b3)
}

func msub4(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	msub4Generic(dst, a, b0, b1, b2, b3)
}

func madd1(dst []float64, a float64, b []float64) { madd1Generic(dst, a, b) }

func msub1(dst []float64, a float64, b []float64) { msub1Generic(dst, a, b) }
