package qbd

import (
	"fmt"
	"math"

	"bgperf/internal/mat"
	"bgperf/internal/obs"
)

// RScheme selects the matrix iteration used to compute the first-passage
// matrix G (and from it R). Both schemes converge quadratically to the same
// minimal solution; they differ in per-iteration cost and in the residual
// they expose to the convergence trace.
type RScheme int

const (
	// RSchemeCyclic is the cyclic-reduction algorithm of Bini and Meini —
	// the default. Each iteration performs four matrix products plus one
	// factorization with two multi-RHS solves, against logarithmic
	// reduction's eight products plus a factorization and inverse, so it is
	// the faster scheme on every block size.
	RSchemeCyclic RScheme = iota
	// RSchemeLogarithmic is the logarithmic-reduction algorithm of Latouche
	// and Ramaswami, the scheme the paper cites ([10]). Kept both as an
	// independent cross-check of the default (the two agree to 1e-12 on
	// every generator configuration, pinned by tests) and for convergence
	// traces in G-defect form.
	RSchemeLogarithmic
)

// String returns the scheme name used in diagnostics and CLI flags.
func (s RScheme) String() string {
	switch s {
	case RSchemeCyclic:
		return "cyclic"
	case RSchemeLogarithmic:
		return "logarithmic"
	default:
		return fmt.Sprintf("RScheme(%d)", int(s))
	}
}

// ParseRScheme converts a CLI/string form back into an RScheme.
func ParseRScheme(s string) (RScheme, error) {
	switch s {
	case "cyclic":
		return RSchemeCyclic, nil
	case "logarithmic":
		return RSchemeLogarithmic, nil
	}
	return 0, fmt.Errorf("%w: unknown R scheme %q (want cyclic or logarithmic)", ErrInvalid, s)
}

// Tuning selects numerical strategy knobs for a Process's solves. The zero
// value is the default configuration: cyclic reduction, serial multiplies.
// Every tuning produces bit-identical metrics for a given Scheme — Workers
// only changes wall-clock (pinned by tests).
type Tuning struct {
	// Scheme is the G/R iteration to run.
	Scheme RScheme
	// Workers bounds the goroutine fan-out of the block-row-banded matrix
	// multiplies inside the iteration; values <= 1 run serially. Results are
	// bit-identical for every worker count.
	Workers int
}

// Tune installs t for all subsequent solves on p. It must not be called
// concurrently with a solve.
func (p *Process) Tune(t Tuning) { p.tuning = t }

// Tuning returns the currently installed tuning.
func (p *Process) Tuning() Tuning { return p.tuning }

// MulBudget returns the exact number of MulCount-visible matrix products a
// convergent run of the scheme performs over iters iterations — the op
// budget the regression tests pin so accidental extra products in the
// innermost solver loops fail fast. LU factorizations and triangular solves
// are not matrix products and are not counted.
//
// Logarithmic reduction: eight products per iteration (two for u, h², l²,
// the two inverse applications, the shared t·l, and the t·h advance —
// skipped on the final iteration) plus the two pre-loop kernel products:
// 8·iters + 1. Cyclic reduction: four products per iteration (the shared
// up·S·down, down·S·up, and the two block squarings) and none outside the
// loop — the final G assembly is a triangular solve: 4·iters.
func MulBudget(scheme RScheme, iters int) int64 {
	switch scheme {
	case RSchemeCyclic:
		return int64(4 * iters)
	case RSchemeLogarithmic:
		return int64(8*iters + 1)
	}
	panic(fmt.Sprintf("qbd: MulBudget of unknown scheme %d", int(scheme)))
}

// crTol is the stopping threshold on min(‖up‖∞, ‖down‖∞). The vanishing
// iterate decays multiplicatively (quadratically in exact arithmetic, and
// rounding cannot stall a product of substochastic factors), so the
// threshold is always reached and overshooting it costs at most one cheap
// extra iteration while guaranteeing G to near machine precision.
const crTol = 1e-14

// crState is the preallocated working set of one cyclic-reduction run: the
// three block iterates, the censored-level accumulator, the two solve
// targets, a factorization scratch, a product buffer, and a reusable LU.
// After newCRState, step performs zero heap allocations (pinned by
// TestCyclicReductionStepZeroAlloc).
type crState struct {
	ws      *mat.Workspace
	workers int

	id      *mat.Matrix // I, fixed
	down    *mat.Matrix // A₋₁ iterate (level-down block)
	local   *mat.Matrix // A₀ iterate (within-level block)
	up      *mat.Matrix // A₁ iterate (level-up block)
	hat     *mat.Matrix // Â₀, the censored first-level accumulator
	t1, t2  *mat.Matrix // storage for S·down, S·up with S = (I − local)⁻¹
	work    *mat.Matrix // I − local / I − hat factorization target
	scratch *mat.Matrix // storage for the products
	lu      *mat.LU
	rowSums []float64

	// Column compaction. down and up keep structurally zero columns (the
	// level-down block reaches only the phases a departure can land in, a
	// quarter to a half of them), and a product or solve with a zero right-hand
	// column yields a zero column. step therefore works on the nonzero
	// column sets of down and up (index storage in cols) through narrow
	// views over t1, t2, and scratch.
	cols           []int
	t1c, t2c, prod mat.Matrix

	// residual is min(‖up‖∞, ‖down‖∞) after the latest step — the quantity
	// the convergence trace reports. Which block vanishes identifies the
	// drift: up for recurrent chains, down for transient ones.
	residual float64
}

// newCRState acquires the working set for order-m blocks from ws (nil ws
// allocates directly).
func newCRState(m int, ws *mat.Workspace, workers int) *crState {
	return &crState{
		ws:      ws,
		workers: workers,
		// Every buffer but the identity is fully overwritten before its first
		// read (start clones the inputs; the solve and product targets are
		// pure destinations), so the working set skips acquisition zeroing.
		id:      ws.Identity(m),
		down:    ws.MatrixUninit(m, m),
		local:   ws.MatrixUninit(m, m),
		up:      ws.MatrixUninit(m, m),
		hat:     ws.MatrixUninit(m, m),
		t1:      ws.MatrixUninit(m, m),
		t2:      ws.MatrixUninit(m, m),
		work:    ws.MatrixUninit(m, m),
		scratch: ws.MatrixUninit(m, m),
		lu:      ws.LU(m),
		rowSums: ws.Vector(m),
		cols:    make([]int, 2*m),
	}
}

// release hands every buffer back to the workspace.
func (s *crState) release() {
	s.ws.Release(s.id, s.down, s.local, s.up, s.hat, s.t1, s.t2, s.work, s.scratch)
	s.ws.ReleaseLU(s.lu)
	s.ws.ReleaseVector(s.rowSums)
}

// start copies the DTMC blocks (b0 up, b1 local, b2 down) into the iterates;
// the accumulator starts as the local block. The inputs are never written.
func (s *crState) start(b0, b1, b2 *mat.Matrix) {
	b2.CloneInto(s.down)
	b1.CloneInto(s.local)
	b0.CloneInto(s.up)
	b1.CloneInto(s.hat)
}

// step runs one cyclic-reduction iteration in place, with zero heap
// allocations. With S = (I − local)⁻¹ applied by two multi-RHS solves:
//
//	local' = local + up·S·down + down·S·up
//	hat'   = hat + up·S·down   (shares the up·S·down product with local')
//	down'  = down·S·down
//	up'    = up·S·up
//
// Every term's columns are those of its right factor, so the solves and
// products run only on the nonzero columns of down (r_d of them) and up
// (r_u), at O(m²·r) instead of O(m³), and the results are written back into
// those columns. down' and up' are zero outside them, as down and up already
// are, so the write-back needs no clearing.
// Substitution is column-independent and both multiply kernels accumulate
// each element in ascending k, so the compacted step is bit-identical to the
// full-width one (pinned against it by TestCompactStepBitIdentical).
//
// done reports convergence: the drift-determined iterate has vanished and
// the censored accumulator is final.
func (s *crState) step() (done bool, err error) {
	m := s.id.Rows()
	s.work.SubInto(s.id, s.local)
	if err := mat.FactorizeInto(s.lu, s.work); err != nil {
		return false, err
	}
	colsDown := s.down.NonzeroColsInto(s.cols[:m:m])
	colsUp := s.up.NonzeroColsInto(s.cols[m:])
	rd, ru := len(colsDown), len(colsUp)
	t1 := s.lu.SolveColsInto(s.t1c.ViewOf(s.t1, m, rd), s.down, colsDown)
	t2 := s.lu.SolveColsInto(s.t2c.ViewOf(s.t2, m, ru), s.up, colsUp)
	p := s.prod.ViewOf(s.scratch, m, rd)
	mat.MulIntoWorkers(p, s.up, t1, s.workers) // up·S·down
	s.local.AddCols(p, colsDown)
	s.hat.AddCols(p, colsDown)
	p = s.prod.ViewOf(s.scratch, m, ru)
	mat.MulIntoWorkers(p, s.down, t2, s.workers) // down·S·up
	s.local.AddCols(p, colsUp)
	p = s.prod.ViewOf(s.scratch, m, rd)
	mat.MulIntoWorkers(p, s.down, t1, s.workers) // down·S·down
	s.down.SetCols(p, colsDown)
	p = s.prod.ViewOf(s.scratch, m, ru)
	mat.MulIntoWorkers(p, s.up, t2, s.workers) // up·S·up
	s.up.SetCols(p, colsUp)
	s.residual = math.Min(s.infNorm(s.down), s.infNorm(s.up))
	return s.residual < crTol, nil
}

// infNorm computes max |row sum| of m on the preallocated row-sum buffer.
// That is ‖m‖∞ only because the iterates are entrywise nonnegative (sums of
// products of nonnegative blocks and the nonnegative S); a variant whose
// iterates can turn negative (a shifted reduction, say) must sum absolute
// values instead, or cancellation will stop the iteration early.
func (s *crState) infNorm(m *mat.Matrix) float64 {
	norm := 0.0
	for _, rs := range m.RowSumsInto(s.rowSums) {
		if a := math.Abs(rs); a > norm {
			norm = a
		}
	}
	return norm
}

// finish assembles G = (I − Â₀)⁻¹·b2 once the iteration has converged: the
// first repeating level, censored on itself, reaches level 0 by any number
// of hat-loops followed by one down step. defect is G's max |1 − rowsum|.
func (s *crState) finish(b2 *mat.Matrix) (g *mat.Matrix, defect float64, err error) {
	s.work.SubInto(s.id, s.hat)
	if err := mat.FactorizeInto(s.lu, s.work); err != nil {
		return nil, 0, err
	}
	g = s.ws.MatrixUninit(b2.Rows(), b2.Cols())
	s.lu.SolveMatInto(g, b2)
	for _, rs := range g.RowSumsInto(s.rowSums) {
		if d := math.Abs(1 - rs); d > defect {
			defect = d
		}
	}
	return g, defect, nil
}

// cyclicReduction runs the Bini–Meini cyclic-reduction algorithm on the DTMC
// blocks (b0 up, b1 local, b2 down), returning G and the iteration count the
// op-budget regression tests pin (MulBudget(RSchemeCyclic, iters) products).
func cyclicReduction(b0, b1, b2 *mat.Matrix) (*mat.Matrix, int, error) {
	g, iters, _, err := cyclicReductionObs(b0, b1, b2, nil, nil, 1)
	return g, iters, err
}

// cyclicReductionObs is cyclicReduction drawing its working set from ws (nil
// ws allocates), reporting the per-iteration residual min(‖up‖∞, ‖down‖∞)
// to o (nil o skips all reporting), and fanning its block-row multiplies
// over workers goroutines (<= 1 serial; results are bit-identical for every
// worker count). The returned G is not handed back to ws. residual is G's
// defect (max |1 − rowsum|), the same quantity the logarithmic-reduction
// path reports, so RSolved reports are comparable across schemes.
func cyclicReductionObs(b0, b1, b2 *mat.Matrix, ws *mat.Workspace, o obs.Observer, workers int) (g *mat.Matrix, iters int, residual float64, err error) {
	s := newCRState(b0.Rows(), ws, workers)
	defer s.release()
	s.start(b0, b1, b2)
	const maxIter = 200
	for iter := 0; iter < maxIter; iter++ {
		done, err := s.step()
		if o != nil {
			o.RIteration(iter+1, s.residual)
		}
		if err != nil {
			return nil, iter, s.residual, fmt.Errorf("qbd: cyclic reduction step %d: %w", iter, err)
		}
		if !done {
			continue
		}
		g, defect, err := s.finish(b2)
		if err != nil {
			return nil, iter + 1, s.residual, fmt.Errorf("qbd: cyclic reduction: censored level: %w", err)
		}
		return g, iter + 1, defect, nil
	}
	return nil, maxIter, s.residual, fmt.Errorf("%w: cyclic reduction after %d iterations", ErrNoConvergence, maxIter)
}
