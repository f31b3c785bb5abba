package mat

// Generic row-update primitives: the scalar loops the assembly kernels must
// reproduce bit for bit. They are the kernels wherever the AVX2 set does
// not run (other architectures, CPUs without AVX2) and the reference the
// kernel tests compare against.
//
// Every product sits inside an explicit float64(...) conversion. The Go
// spec forbids fusing a multiply and an add across an explicit conversion,
// so these loops stay unfused even where the compiler may emit FMA
// (GOAMD64=v3, arm64, ppc64, s390x): each product is rounded before it is
// applied, exactly as in the assembly.

// madd4Generic sets dst[j] = (((dst[j] + a[0]·b0[j]) + a[1]·b1[j]) +
// a[2]·b2[j]) + a[3]·b3[j] for every j < len(dst).
func madd4Generic(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	for j, t := range dst {
		t += float64(a0 * b0[j])
		t += float64(a1 * b1[j])
		t += float64(a2 * b2[j])
		t += float64(a3 * b3[j])
		dst[j] = t
	}
}

// msub4Generic is madd4Generic with every term subtracted.
func msub4Generic(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	for j, t := range dst {
		t -= float64(a0 * b0[j])
		t -= float64(a1 * b1[j])
		t -= float64(a2 * b2[j])
		t -= float64(a3 * b3[j])
		dst[j] = t
	}
}

// madd1Generic sets dst[j] += a·b[j] for every j < len(dst).
func madd1Generic(dst []float64, a float64, b []float64) {
	b = b[:len(dst)]
	for j, v := range b {
		dst[j] += float64(a * v)
	}
}

// msub1Generic sets dst[j] -= a·b[j] for every j < len(dst).
func msub1Generic(dst []float64, a float64, b []float64) {
	b = b[:len(dst)]
	for j, v := range b {
		dst[j] -= float64(a * v)
	}
}
