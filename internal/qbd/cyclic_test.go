package qbd

import (
	"fmt"
	"math"
	"testing"

	"bgperf/internal/mat"
	"bgperf/internal/raceflag"
)

// bigProcess builds a stable order-n QBD whose A0/A2 are scaled identities
// (the structure of the paper's chains) and whose phase chain is an
// irreducible ring. For n >= sparseMinOrder this exercises the CSR fast
// paths in rWS and the boundary sweep.
func bigProcess(t *testing.T, n int) *Process {
	t.Helper()
	a0, a1, a2 := mat.New(n, n), mat.New(n, n), mat.New(n, n)
	for i := 0; i < n; i++ {
		a0.Set(i, i, 0.3)
		a2.Set(i, i, 0.7)
		a1.Set(i, (i+1)%n, 0.2)
		a1.Set(i, i, -(0.3 + 0.7 + 0.2))
	}
	p, err := New(a0, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCyclicReductionG(t *testing.T) {
	b0, b1, b2 := logRedBlocks()
	g, iters, err := cyclicReduction(b0, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("expected at least one iteration, got %d", iters)
	}
	for i, s := range g.RowSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("G row %d sums to %g, want 1", i, s)
		}
	}
}

// TestCyclicReductionMulBudget pins cyclic reduction's op budget: exactly
// four matrix products per iteration (the shared up·S·down, down·S·up, and
// the two block squarings) and none outside the loop — the final G assembly
// is a triangular solve, not a product.
func TestCyclicReductionMulBudget(t *testing.T) {
	b0, b1, b2 := logRedBlocks()
	mat.ResetMulCount()
	_, iters, err := cyclicReduction(b0, b1, b2)
	muls := mat.MulCount()
	if err != nil {
		t.Fatal(err)
	}
	want := MulBudget(RSchemeCyclic, iters)
	if muls != want {
		t.Fatalf("cyclicReduction used %d matrix products over %d iterations, want exactly %d",
			muls, iters, want)
	}
}

// TestCyclicReductionStepZeroAlloc pins the zero-allocation contract of the
// cyclic-reduction inner loop, the CR counterpart of
// TestLogReductionStepZeroAlloc.
func TestCyclicReductionStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	b0, b1, b2 := logRedBlocks()
	s := newCRState(b0.Rows(), nil, 1)
	s.start(b0, b1, b2)
	// A converged state keeps iterating harmlessly (up and down shrink
	// toward zero), so AllocsPerRun can re-run step on the same state.
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cyclicReduction step allocated %.0f times per run, want 0", allocs)
	}
}

// TestCyclicAgreesWithLogReduction pins the 1e-12 cross-check between the
// default scheme and the logarithmic-reduction reference at the G level.
func TestCyclicAgreesWithLogReduction(t *testing.T) {
	b0, b1, b2 := logRedBlocks()
	gLR, _, err := logReduction(b0, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	gCR, _, err := cyclicReduction(b0, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gLR.Rows(); i++ {
		for j := 0; j < gLR.Cols(); j++ {
			if d := math.Abs(gLR.At(i, j) - gCR.At(i, j)); d > 1e-12 {
				t.Fatalf("G disagreement at (%d,%d): %g", i, j, d)
			}
		}
	}
}

// TestRSchemeAgreement solves the same processes under both schemes and
// requires the R matrices to agree to 1e-12, covering the degenerate
// one-phase chain, a rectangular-boundary PH-service chain, and a large
// sparse-block chain that exercises the CSR fast paths.
func TestRSchemeAgreement(t *testing.T) {
	builds := []struct {
		name  string
		build func() *Process
	}{
		{"mm1", func() *Process { p, _ := mm1(1, 2.5); return p }},
		{"me2q", func() *Process { p, _ := me2q(0.4, 1.0); return p }},
		{"big96", func() *Process { return bigProcess(t, 96) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			pCR := b.build()
			pCR.Tune(Tuning{Scheme: RSchemeCyclic})
			rCR, err := pCR.R()
			if err != nil {
				t.Fatal(err)
			}
			pLR := b.build()
			pLR.Tune(Tuning{Scheme: RSchemeLogarithmic})
			rLR, err := pLR.R()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rCR.Rows(); i++ {
				for j := 0; j < rCR.Cols(); j++ {
					if d := math.Abs(rCR.At(i, j) - rLR.At(i, j)); d > 1e-12 {
						t.Fatalf("R disagreement at (%d,%d): %g (cyclic %g vs logarithmic %g)",
							i, j, d, rCR.At(i, j), rLR.At(i, j))
					}
				}
			}
		})
	}
}

// TestWorkersBitIdentical pins the determinism contract of intra-solve
// parallelism: for both schemes, R computed with a fanned-out worker pool is
// bit-for-bit the serial result. Run under -race (the CI race job) this also
// exercises the concurrent use of the shared workspace and the disjoint
// row-band writes.
func TestWorkersBitIdentical(t *testing.T) {
	for _, scheme := range []RScheme{RSchemeCyclic, RSchemeLogarithmic} {
		t.Run(scheme.String(), func(t *testing.T) {
			pSerial := bigProcess(t, 96)
			pSerial.Tune(Tuning{Scheme: scheme})
			rSerial, err := pSerial.R()
			if err != nil {
				t.Fatal(err)
			}
			pPar := bigProcess(t, 96)
			pPar.Tune(Tuning{Scheme: scheme, Workers: 4})
			rPar, err := pPar.R()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rSerial.Rows(); i++ {
				for j := 0; j < rSerial.Cols(); j++ {
					s, p := rSerial.At(i, j), rPar.At(i, j)
					if math.Float64bits(s) != math.Float64bits(p) {
						t.Fatalf("R(%d,%d) differs across worker counts: %g vs %g", i, j, s, p)
					}
				}
			}
		})
	}
}

// TestSparseBlocksGating checks the CSR snapshots appear exactly when both
// gates pass: large order and low density.
func TestSparseBlocksGating(t *testing.T) {
	small, _ := me2q(0.4, 1.0)
	if sA0, sA2 := small.sparseBlocks(); sA0 != nil || sA2 != nil {
		t.Fatal("order-2 process built sparse snapshots below sparseMinOrder")
	}
	big := bigProcess(t, 96)
	sA0, sA2 := big.sparseBlocks()
	if sA0 == nil || sA2 == nil {
		t.Fatal("order-96 scaled-identity blocks should have sparse snapshots")
	}
	if sA0.NNZ() != 96 || sA2.NNZ() != 96 {
		t.Fatalf("snapshot NNZ = %d/%d, want 96/96", sA0.NNZ(), sA2.NNZ())
	}
}

func TestParseRScheme(t *testing.T) {
	for _, s := range []RScheme{RSchemeCyclic, RSchemeLogarithmic} {
		got, err := ParseRScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseRScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseRScheme("newton"); err == nil {
		t.Fatal("ParseRScheme accepted an unknown scheme")
	}
}

// stepDense is the full-width cyclic-reduction step that step replaced,
// kept as the reference the column-compacted step must reproduce bit for
// bit: both solves and all four products sweep every column of down and up,
// zero or not.
func (s *crState) stepDense() (done bool, err error) {
	s.work.SubInto(s.id, s.local)
	if err := mat.FactorizeInto(s.lu, s.work); err != nil {
		return false, err
	}
	s.lu.SolveMatInto(s.t1, s.down)
	s.lu.SolveMatInto(s.t2, s.up)
	mat.MulIntoWorkers(s.scratch, s.up, s.t1, s.workers) // up·S·down
	s.local.AddInPlace(s.scratch)
	s.hat.AddInPlace(s.scratch)
	mat.MulIntoWorkers(s.scratch, s.down, s.t2, s.workers) // down·S·up
	s.local.AddInPlace(s.scratch)
	mat.MulIntoWorkers(s.scratch, s.down, s.t1, s.workers) // down·S·down
	s.down, s.scratch = s.scratch, s.down
	mat.MulIntoWorkers(s.scratch, s.up, s.t2, s.workers) // up·S·up
	s.up, s.scratch = s.scratch, s.up
	s.residual = math.Min(s.infNorm(s.down), s.infNorm(s.up))
	return s.residual < crTol, nil
}

// compareCompactSteps runs the compacted and the dense step side by side on
// the DTMC blocks of p, requiring every iterate to match bit for bit after
// every iteration and the assembled G to match too. It returns the
// iteration count and the number of nonzero columns left in the final down
// and up iterates.
func compareCompactSteps(t *testing.T, p *Process) (iters, downCols, upCols int) {
	t.Helper()
	b0, b1, b2, err := p.dtmcBlocks(nil)
	if err != nil {
		t.Fatal(err)
	}
	compact := newCRState(p.Order(), nil, 1)
	dense := newCRState(p.Order(), nil, 1)
	compact.start(b0, b1, b2)
	dense.start(b0, b1, b2)
	for iter := 1; iter <= 200; iter++ {
		doneC, errC := compact.step()
		doneD, errD := dense.stepDense()
		if errC != nil || errD != nil {
			t.Fatalf("iteration %d: compact err %v, dense err %v", iter, errC, errD)
		}
		for _, it := range []struct {
			name string
			c, d *mat.Matrix
		}{{"down", compact.down, dense.down}, {"up", compact.up, dense.up},
			{"local", compact.local, dense.local}, {"hat", compact.hat, dense.hat}} {
			requireBitIdentical(t, fmt.Sprintf("iteration %d %s", iter, it.name), it.c, it.d)
		}
		if math.Float64bits(compact.residual) != math.Float64bits(dense.residual) || doneC != doneD {
			t.Fatalf("iteration %d: residual %g vs %g, done %v vs %v",
				iter, compact.residual, dense.residual, doneC, doneD)
		}
		if !doneC {
			continue
		}
		gC, _, err := compact.finish(b2)
		if err != nil {
			t.Fatal(err)
		}
		gD, _, err := dense.finish(b2)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "G", gC, gD)
		// The production entry point runs the same iteration.
		g, err := p.G()
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "Process.G", g, gD)
		cols := make([]int, p.Order())
		return iter, len(dense.down.NonzeroColsInto(cols)), len(dense.up.NonzeroColsInto(cols))
	}
	t.Fatal("no convergence in 200 iterations")
	return 0, 0, 0
}

func requireBitIdentical(t *testing.T, what string, got, want *mat.Matrix) {
	t.Helper()
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s(%d,%d) = %v (bits %#x), dense reference %v (bits %#x)",
					what, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestCompactStepBitIdentical pins the column-compacted cyclic-reduction
// step against the full-width reference on the unit processes: a one-phase
// chain, a chain whose A2 has a structurally zero column, and a large chain
// whose scaled-identity blocks keep every column.
func TestCompactStepBitIdentical(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *Process
	}{
		{"mm1", func() *Process { p, _ := mm1(1, 2.5); return p }},
		{"me2q", func() *Process { p, _ := me2q(0.4, 1.0); return p }},
		{"big96", func() *Process { return bigProcess(t, 96) }},
	} {
		t.Run(c.name, func(t *testing.T) { compareCompactSteps(t, c.build()) })
	}
}
