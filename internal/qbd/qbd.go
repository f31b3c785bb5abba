// Package qbd solves Quasi-Birth-Death processes — continuous-time Markov
// chains whose generator is block tridiagonal with a repeating portion —
// using the matrix-geometric method of Neuts, the machinery the paper cites
// ([10]) for solving its foreground/background model. The first-passage
// matrix G comes from the cyclic-reduction algorithm of Bini and Meini by
// default; the logarithmic-reduction algorithm of Latouche and Ramaswami,
// the one the paper cites, is selectable as an independent cross-check.
//
// A QBD is described by the repeating blocks (A0, A1, A2): A0 carries the
// rates one level up, A2 one level down, and A1 the within-level rates
// including the negative diagonal. The stationary distribution of the
// repeating levels is matrix-geometric, π_{j+1} = π_j·R, where R is the
// minimal nonnegative solution of A0 + R·A1 + R²·A2 = 0.
//
// The solver hot loops run on preallocated working sets (mat.Workspace and
// the *Into kernels): both reduction iterations perform zero heap
// allocations in steady state, pinned by regression tests. The cyclic
// reduction also skips the structurally zero columns of its level-down and
// level-up iterates, bit-identically to the full-width step.
package qbd

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"bgperf/internal/markov"
	"bgperf/internal/mat"
	"bgperf/internal/obs"
)

// ErrInvalid reports malformed QBD blocks.
var ErrInvalid = errors.New("qbd: invalid process")

// ErrUnstable reports a QBD whose drift condition fails (no stationary
// distribution).
var ErrUnstable = errors.New("qbd: process is not positive recurrent")

// ErrNoConvergence reports an iterative solver that did not converge.
var ErrNoConvergence = errors.New("qbd: iteration did not converge")

// Process holds the repeating blocks of a QBD.
type Process struct {
	a0, a1, a2 *mat.Matrix
	order      int

	// Drift is needed by Stable, the R error path, and first-passage
	// queries; it is computed at most once per process.
	driftOnce          sync.Once
	driftUp, driftDown float64
	driftErr           error

	// tuning selects the G/R iteration and the intra-solve multiply fan-out;
	// the zero value is the default (cyclic reduction, serial).
	tuning Tuning

	// Sparse snapshots of A0/A2, built lazily for large sparse blocks (the
	// scaled-identity-like transition blocks of the paper's chains); nil when
	// the dense kernels are the better choice.
	sparseOnce sync.Once
	sA0, sA2   *mat.Sparse
}

// sparseMinOrder and sparseMaxDensity gate the CSR snapshots of A0/A2: below
// the order threshold the dense kernels win (and the snapshot allocations
// would show up in the small-model solve alloc budget); above the density
// threshold the sparse traversal saves nothing over the zero-skipping dense
// kernels.
const (
	sparseMinOrder   = 48
	sparseMaxDensity = 0.25
)

// sparseBlocks returns the CSR snapshots of A0 and A2 when they are worth
// using (large order, low density), building them at most once per process.
// Either result may be nil independently. The sparse kernels are bit-identical
// to the dense ones (pinned in internal/mat), so using a snapshot never
// changes results.
func (p *Process) sparseBlocks() (sA0, sA2 *mat.Sparse) {
	p.sparseOnce.Do(func() {
		if p.order < sparseMinOrder {
			return
		}
		if s := mat.NewSparse(p.a0); s.Density() <= sparseMaxDensity {
			p.sA0 = s
		}
		if s := mat.NewSparse(p.a2); s.Density() <= sparseMaxDensity {
			p.sA2 = s
		}
	})
	return p.sA0, p.sA2
}

// New validates the repeating blocks and returns the process. A0 and A2 must
// be entrywise nonnegative, A1 must have nonnegative off-diagonal entries,
// and A = A0+A1+A2 must be an irreducible generator. Blocks are validated in
// the fixed order A0, A1, A2, so the reported error is deterministic when
// several blocks are malformed.
func New(a0, a1, a2 *mat.Matrix) (*Process, error) {
	m := a0.Rows()
	blocks := []struct {
		name string
		m    *mat.Matrix
	}{{"A0", a0}, {"A1", a1}, {"A2", a2}}
	for _, b := range blocks {
		if b.m.Rows() != m || b.m.Cols() != m {
			return nil, fmt.Errorf("%w: %s is %dx%d, want %dx%d", ErrInvalid, b.name, b.m.Rows(), b.m.Cols(), m, m)
		}
		if !b.m.IsFinite() {
			return nil, fmt.Errorf("%w: %s has non-finite entries", ErrInvalid, b.name)
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if a0.At(i, j) < 0 || a2.At(i, j) < 0 {
				return nil, fmt.Errorf("%w: negative rate in A0/A2 at (%d,%d)", ErrInvalid, i, j)
			}
			if i != j && a1.At(i, j) < 0 {
				return nil, fmt.Errorf("%w: negative off-diagonal in A1 at (%d,%d)", ErrInvalid, i, j)
			}
		}
	}
	sum := a0.AddMat(a1).AddInPlace(a2)
	if err := markov.CheckGenerator(sum, 1e-8); err != nil {
		return nil, fmt.Errorf("%w: A0+A1+A2: %v", ErrInvalid, err)
	}
	return &Process{a0: a0.Clone(), a1: a1.Clone(), a2: a2.Clone(), order: m}, nil
}

// Order returns the per-level block size.
func (p *Process) Order() int { return p.order }

// A0 returns a copy of the up-transition block.
func (p *Process) A0() *mat.Matrix { return p.a0.Clone() }

// A1 returns a copy of the local block.
func (p *Process) A1() *mat.Matrix { return p.a1.Clone() }

// A2 returns a copy of the down-transition block.
func (p *Process) A2() *mat.Matrix { return p.a2.Clone() }

// Drift returns the mean upward and downward drift rates (φA0e, φA2e) under
// the stationary phase distribution φ of the generator A = A0+A1+A2. The
// process is positive recurrent iff up < down. The result is computed once
// and cached, so Stable, R, and the passage-time queries share a single
// StationaryCTMC solve.
func (p *Process) Drift() (up, down float64, err error) {
	p.driftOnce.Do(p.computeDrift)
	return p.driftUp, p.driftDown, p.driftErr
}

func (p *Process) computeDrift() {
	a := p.a0.AddMat(p.a1).AddInPlace(p.a2)
	var phi []float64
	if p.order == 1 {
		phi = []float64{1}
	} else {
		// Note: A may be reducible with a single recurrent class (e.g. the
		// paper's chain, where BG-serving phases are entered only from the
		// boundary). The LU-based solve handles that — transient phases get
		// zero mass — whereas GTH would reject the chain outright.
		var err error
		phi, err = markov.StationaryCTMC(a)
		if err != nil {
			// A with several closed classes (e.g. a chain whose repeating
			// region freezes part of the phase, as under the util-threshold
			// admission policy) has no unique stationary vector. The level
			// process can dwell arbitrarily long in any closed class, so the
			// QBD is positive recurrent iff every class drifts down; report
			// the drift of the binding class (smallest down-minus-up margin).
			up, down, cerr := p.classDrift(a)
			if cerr != nil {
				p.driftErr = fmt.Errorf("qbd: drift: %w", err)
				return
			}
			p.driftUp, p.driftDown = up, down
			return
		}
	}
	p.driftUp = mat.Dot(phi, p.a0.RowSums())
	p.driftDown = mat.Dot(phi, p.a2.RowSums())
}

// classDrift computes the per-closed-class drift of a reducible phase
// generator A and returns the (up, down) pair of the class with the smallest
// stability margin down − up. Closed classes are the strongly connected
// components of A's support graph with no edges leaving them; restricted to
// such a class, A is an irreducible generator with its own stationary vector
// and therefore its own conditional drift.
func (p *Process) classDrift(a *mat.Matrix) (up, down float64, err error) {
	classes := closedClasses(a)
	if len(classes) == 0 {
		return 0, 0, fmt.Errorf("qbd: drift: no closed class in A")
	}
	upRates := p.a0.RowSums()
	downRates := p.a2.RowSums()
	margin := math.Inf(1)
	for _, class := range classes {
		sub := mat.New(len(class), len(class))
		for i, gi := range class {
			for j, gj := range class {
				sub.Set(i, j, a.At(gi, gj))
			}
		}
		phi, serr := markov.StationaryCTMC(sub)
		if serr != nil {
			return 0, 0, serr
		}
		var cu, cd float64
		for i, gi := range class {
			cu += phi[i] * upRates[gi]
			cd += phi[i] * downRates[gi]
		}
		if cd-cu < margin {
			margin = cd - cu
			up, down = cu, cd
		}
	}
	return up, down, nil
}

// closedClasses returns the strongly connected components of the support
// graph of generator a that have no outgoing edges (Tarjan's algorithm,
// iterative). States in open components are transient within a and carry no
// stationary mass.
func closedClasses(a *mat.Matrix) [][]int {
	n := a.Rows()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && a.At(i, j) > 0 {
				adj[i] = append(adj[i], j)
			}
		}
	}
	const unvisited = -1
	var (
		index   = make([]int, n)
		lowlink = make([]int, n)
		onStack = make([]bool, n)
		comp    = make([]int, n)
		stack   []int
		sccs    [][]int
		nextIdx int
		frameV  []int
		frameEi []int
	)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frameV = append(frameV[:0], root)
		frameEi = append(frameEi[:0], 0)
		index[root] = nextIdx
		lowlink[root] = nextIdx
		nextIdx++
		stack = append(stack, root)
		onStack[root] = true
		for len(frameV) > 0 {
			v := frameV[len(frameV)-1]
			ei := frameEi[len(frameEi)-1]
			if ei < len(adj[v]) {
				frameEi[len(frameEi)-1]++
				w := adj[v][ei]
				if index[w] == unvisited {
					index[w] = nextIdx
					lowlink[w] = nextIdx
					nextIdx++
					stack = append(stack, w)
					onStack[w] = true
					frameV = append(frameV, w)
					frameEi = append(frameEi, 0)
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			frameV = frameV[:len(frameV)-1]
			frameEi = frameEi[:len(frameEi)-1]
			if len(frameV) > 0 {
				if parent := frameV[len(frameV)-1]; lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(sccs)
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	var closed [][]int
	for ci, scc := range sccs {
		open := false
		for _, v := range scc {
			for _, w := range adj[v] {
				if comp[w] != ci {
					open = true
					break
				}
			}
			if open {
				break
			}
		}
		if !open {
			closed = append(closed, scc)
		}
	}
	return closed
}

// Stable reports whether the QBD is positive recurrent (mean drift strictly
// downward).
func (p *Process) Stable() (bool, error) {
	up, down, err := p.Drift()
	if err != nil {
		return false, err
	}
	return up < down, nil
}

// G computes the first-passage matrix G — entry (i,j) is the probability that
// the process, started in phase i of level n+1, first enters level n in phase
// j — on the uniformized chain, by the scheme the installed Tuning selects
// (cyclic reduction by default). For a recurrent QBD, G is stochastic.
func (p *Process) G() (*mat.Matrix, error) {
	g, _, _, err := p.gWS(nil, nil)
	return g, err
}

// gWS is G with an optional workspace supplying the reduction's scratch
// buffers and an optional observer receiving the per-iteration convergence
// trace (nil is valid for both). It also returns the iteration count and the
// final residual for convergence reporting.
func (p *Process) gWS(ws *mat.Workspace, o obs.Observer) (*mat.Matrix, int, float64, error) {
	b0, b1, b2, err := p.dtmcBlocks(ws)
	if err != nil {
		return nil, 0, 0, err
	}
	var (
		g        *mat.Matrix
		iters    int
		residual float64
	)
	switch p.tuning.Scheme {
	case RSchemeLogarithmic:
		g, iters, residual, err = logReductionObs(b0, b1, b2, ws, o, p.tuning.Workers)
	default:
		g, iters, residual, err = cyclicReductionObs(b0, b1, b2, ws, o, p.tuning.Workers)
	}
	ws.Release(b0, b1, b2)
	return g, iters, residual, err
}

// dtmcBlocks uniformizes the repeating blocks into the DTMC blocks (b0 up,
// b1 local, b2 down) the G iterations run on, drawing them from ws (nil
// allocates). The diagonal lives in A1; θ is its largest magnitude, nudged
// up so every diagonal of b1 stays positive.
func (p *Process) dtmcBlocks(ws *mat.Workspace) (b0, b1, b2 *mat.Matrix, err error) {
	theta := 0.0
	for i := 0; i < p.order; i++ {
		if d := -p.a1.At(i, i); d > theta {
			theta = d
		}
	}
	if theta == 0 {
		return nil, nil, nil, fmt.Errorf("%w: zero generator", ErrInvalid)
	}
	theta *= 1 + 1e-12
	m := p.order
	b0 = ws.MatrixUninit(m, m).ScaleInto(p.a0, 1/theta)
	b1 = ws.MatrixUninit(m, m).ScaleInto(p.a1, 1/theta)
	for i := 0; i < m; i++ {
		b1.Add(i, i, 1)
	}
	b2 = ws.MatrixUninit(m, m).ScaleInto(p.a2, 1/theta)
	return b0, b1, b2, nil
}

// logRedState is the preallocated working set of one logarithmic-reduction
// run: the ~8 square temporaries of the iteration, a reusable LU, and a row-
// sum buffer. After newLogRedState, the steady-state step performs zero heap
// allocations (pinned by TestLogReductionStepZeroAlloc).
type logRedState struct {
	ws      *mat.Workspace
	workers int

	id      *mat.Matrix // I, fixed
	h, l    *mat.Matrix // level-up / level-down kernels
	g, t    *mat.Matrix // accumulated G and the product of h's
	u       *mat.Matrix // h·l + l·h
	hh, ll  *mat.Matrix // h², l²
	tl      *mat.Matrix // t·l, shared by the G update and the stop criterion
	inv     *mat.Matrix // (I − u)⁻¹
	scratch *mat.Matrix // ping-pong partner / subtraction target
	lu      *mat.LU
	rowSums []float64

	// defect is the residual (max |1 − rowsum(G)|) after the latest step —
	// the quantity the convergence trace reports.
	defect float64
}

// newLogRedState acquires the working set for order-m blocks from ws (nil ws
// allocates directly). workers bounds the block-row fan-out of the step's
// multiplies (<= 1 serial; results are bit-identical for every worker count).
func newLogRedState(m int, ws *mat.Workspace, workers int) *logRedState {
	return &logRedState{
		ws:      ws,
		workers: workers,
		// Every buffer but the identity is fully overwritten before its first
		// read (products, clones, differences, inverse targets), so the
		// working set skips acquisition zeroing.
		id:      ws.Identity(m),
		h:       ws.MatrixUninit(m, m),
		l:       ws.MatrixUninit(m, m),
		g:       ws.MatrixUninit(m, m),
		t:       ws.MatrixUninit(m, m),
		u:       ws.MatrixUninit(m, m),
		hh:      ws.MatrixUninit(m, m),
		ll:      ws.MatrixUninit(m, m),
		tl:      ws.MatrixUninit(m, m),
		inv:     ws.MatrixUninit(m, m),
		scratch: ws.MatrixUninit(m, m),
		lu:      ws.LU(m),
		rowSums: ws.Vector(m),
	}
}

// release hands every buffer except g (the caller's result) back to the
// workspace.
func (s *logRedState) release() {
	s.ws.Release(s.id, s.h, s.l, s.t, s.u, s.hh, s.ll, s.tl, s.inv, s.scratch)
	s.ws.ReleaseLU(s.lu)
	s.ws.ReleaseVector(s.rowSums)
}

// start initializes the kernels from the DTMC blocks (b0 up, b1 local, b2
// down): h = (I−b1)⁻¹·b0, l = (I−b1)⁻¹·b2, g = l, t = h.
func (s *logRedState) start(b0, b1, b2 *mat.Matrix) error {
	s.scratch.SubInto(s.id, b1)
	if err := mat.FactorizeInto(s.lu, s.scratch); err != nil {
		return err
	}
	s.lu.InverseInto(s.inv)
	s.h.MulInto(s.inv, b0)
	s.l.MulInto(s.inv, b2)
	s.l.CloneInto(s.g)
	s.h.CloneInto(s.t)
	return nil
}

// step runs one reduction iteration in place, with zero heap allocations:
// every temporary is a preallocated buffer, and t advances by ping-ponging
// with scratch. done reports convergence (G's defect below 1e-13, or a
// negligible update for transient chains).
func (s *logRedState) step() (done bool, err error) {
	mat.MulIntoWorkers(s.u, s.h, s.l, s.workers)
	mat.MulIntoWorkers(s.scratch, s.l, s.h, s.workers)
	s.u.AddInPlace(s.scratch)
	mat.MulIntoWorkers(s.hh, s.h, s.h, s.workers)
	mat.MulIntoWorkers(s.ll, s.l, s.l, s.workers)
	s.scratch.SubInto(s.id, s.u)
	if err := mat.FactorizeInto(s.lu, s.scratch); err != nil {
		return false, err
	}
	s.lu.InverseInto(s.inv)
	mat.MulIntoWorkers(s.h, s.inv, s.hh, s.workers)
	mat.MulIntoWorkers(s.l, s.inv, s.ll, s.workers)
	mat.MulIntoWorkers(s.tl, s.t, s.l, s.workers) // shared by the G update and the step criterion below
	s.g.AddInPlace(s.tl)
	// For a recurrent QBD the row sums of G approach one; the defect
	// measures remaining mass. For transient chains this never reaches
	// zero, so also stop when the update becomes negligible.
	defect := 0.0
	for _, rs := range s.g.RowSumsInto(s.rowSums) {
		if d := math.Abs(1 - rs); d > defect {
			defect = d
		}
	}
	s.defect = defect
	if defect < 1e-13 || s.tl.MaxAbs() < 1e-15 {
		return true, nil
	}
	mat.MulIntoWorkers(s.scratch, s.t, s.h, s.workers)
	s.t, s.scratch = s.scratch, s.t
	return false, nil
}

// logReduction runs the Latouche–Ramaswami logarithmic-reduction algorithm on
// the DTMC blocks (b0 up, b1 local, b2 down). It also reports the number of
// iterations taken, which the op-count regression tests use to pin the exact
// multiplication budget of this innermost solver loop (8·iters + 1 matrix
// products).
func logReduction(b0, b1, b2 *mat.Matrix) (*mat.Matrix, int, error) {
	g, iters, _, err := logReductionObs(b0, b1, b2, nil, nil, 1)
	return g, iters, err
}

// logReductionObs is logReduction drawing its working set from ws (nil ws
// allocates), reporting the per-iteration residual to o (nil o skips all
// reporting — the unobserved loop stays allocation-free), and fanning its
// block-row multiplies over workers goroutines (<= 1 serial; results are
// bit-identical for every worker count). The returned G is not handed back
// to ws; every other buffer is released for reuse by later solver stages.
// residual is G's defect after the final iteration.
func logReductionObs(b0, b1, b2 *mat.Matrix, ws *mat.Workspace, o obs.Observer, workers int) (g *mat.Matrix, iters int, residual float64, err error) {
	s := newLogRedState(b0.Rows(), ws, workers)
	defer s.release()
	if err := s.start(b0, b1, b2); err != nil {
		return nil, 0, 0, fmt.Errorf("qbd: logarithmic reduction: %w", err)
	}
	const maxIter = 200
	for iter := 0; iter < maxIter; iter++ {
		done, err := s.step()
		if o != nil {
			o.RIteration(iter+1, s.defect)
		}
		if err != nil {
			return nil, iter, s.defect, fmt.Errorf("qbd: logarithmic reduction step %d: %w", iter, err)
		}
		if done {
			return s.g, iter + 1, s.defect, nil
		}
	}
	return nil, maxIter, s.defect, fmt.Errorf("%w: logarithmic reduction after %d iterations", ErrNoConvergence, maxIter)
}

// R computes the rate matrix R, the minimal nonnegative solution of
// A0 + R·A1 + R²·A2 = 0, via R = A0·(−(A1 + A0·G))⁻¹. The spectral radius of
// R is < 1 exactly when the process is stable.
func (p *Process) R() (*mat.Matrix, error) { return p.rWS(nil, nil) }

// rWS is R with an optional workspace for every intermediate and an optional
// observer receiving the convergence trace plus a completion report with
// sp(R) (nil is valid for both; with a nil observer no timing or spectral-
// radius work runs).
func (p *Process) rWS(ws *mat.Workspace, o obs.Observer) (*mat.Matrix, error) {
	stable, err := p.Stable()
	if err != nil {
		return nil, err
	}
	if !stable {
		up, down, _ := p.Drift()
		return nil, fmt.Errorf("%w: upward drift %.6g >= downward drift %.6g", ErrUnstable, up, down)
	}
	g, iters, residual, err := p.gWS(ws, o)
	if err != nil {
		return nil, err
	}
	m := p.order
	sA0, _ := p.sparseBlocks()
	u := ws.MatrixUninit(m, m)
	if sA0 != nil {
		sA0.MulInto(u, g)
	} else {
		u.MulInto(p.a0, g)
	}
	u.AddInPlace(p.a1)
	u.Scale(-1)
	lu := ws.LU(m)
	if err := mat.FactorizeInto(lu, u); err != nil {
		ws.Release(g, u)
		ws.ReleaseLU(lu)
		return nil, fmt.Errorf("qbd: R: %w", err)
	}
	inv := ws.MatrixUninit(m, m)
	lu.InverseInto(inv)
	r := mat.New(m, m) // escapes into the Solution; never pooled
	if sA0 != nil {
		sA0.MulInto(r, inv)
	} else {
		r.MulInto(p.a0, inv)
	}
	ws.Release(g, u, inv)
	ws.ReleaseLU(lu)
	// Clamp round-off negatives: R is nonnegative in exact arithmetic.
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < r.Cols(); j++ {
			if v := r.At(i, j); v < 0 {
				if v < -1e-9 {
					return nil, fmt.Errorf("%w: R has negative entry %g", ErrNoConvergence, v)
				}
				r.Set(i, j, 0)
			}
		}
	}
	if o != nil {
		o.RSolved(iters, residual, mat.SpectralRadius(r, 1e-12, 10000))
	}
	return r, nil
}

// RByIteration computes R by the classical functional iteration
// R ← −(A0 + R²A2)·A1⁻¹, mainly as an independent cross-check of the
// reduction schemes. tol is the max-abs change stopping criterion.
// The loop runs on four preallocated buffers (R, R², the assembled update,
// and a difference scratch) with zero allocations per iteration.
func (p *Process) RByIteration(tol float64, maxIter int) (*mat.Matrix, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 100000
	}
	invA1, err := mat.Inverse(p.a1)
	if err != nil {
		return nil, fmt.Errorf("qbd: RByIteration: %w", err)
	}
	m := p.order
	r := mat.New(m, m)
	rr := mat.New(m, m)
	next := mat.New(m, m)
	diff := mat.New(m, m)
	for iter := 0; iter < maxIter; iter++ {
		rr.MulInto(r, r)
		diff.MulInto(rr, p.a2)
		diff.AddInPlace(p.a0)
		next.MulInto(diff, invA1)
		next.Scale(-1)
		diff.SubInto(next, r)
		d := diff.MaxAbs()
		r, next = next, r
		if d < tol {
			return r, nil
		}
	}
	return nil, fmt.Errorf("%w: functional iteration after %d steps", ErrNoConvergence, maxIter)
}
