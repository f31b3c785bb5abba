package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"bgperf/internal/core"
	"bgperf/internal/mat"
	"bgperf/internal/serve"
)

// cliDeadline bounds every bgperf invocation. The slowest grid point (X = 30
// at service SCV 0.5 or 2) takes under 0.5 s and the X = 40, SCV 0.5
// baseline probe of a traced run under 0.9 s, light and moderate tail points
// finish in milliseconds, and the heavy tail points walk for more than 10 s,
// so every invocation sits on the same side of the deadline on every run.
const cliDeadline = 2 * time.Second

// cliRoundCost is the budget share of one round over the timed invocations;
// a round takes 2.5–3.7 s on a 2-vCPU VM, as the host's speed varies.
const cliRoundCost = 2500 * time.Millisecond

// Kinds of cli-solve invocation.
const (
	opSolve = iota // `bgperf solve -json`, grid point
	opMulti        // `bgperf multi`, two-class point
	opTail         // text-mode `bgperf solve`, tail set
)

// cliOp is one invocation.
type cliOp struct {
	kind  int
	index int // into the grid, multi or tail set
	args  []string
}

// cliOps lists the invocations of the workload: the timed ones (the grid,
// the two-class share and the light and moderate tail points) and the heavy
// tail points, which run into the deadline and so are never timed.
func cliOps(grid []point, multi []multiPoint) (timed, heavy []cliOp) {
	for i, p := range grid {
		timed = append(timed, cliOp{opSolve, i, append([]string{"solve", "-json"}, p.args()...)})
	}
	for i, m := range multi {
		timed = append(timed, cliOp{opMulti, i, append([]string{"multi"}, m.args()...)})
	}
	for i, tp := range tailSet {
		op := cliOp{opTail, i, append([]string{"solve"}, tp.Point.args()...)}
		if tp.Band == bandHeavy {
			heavy = append(heavy, op)
		} else {
			timed = append(timed, op)
		}
	}
	return timed, heavy
}

// checkCLI verifies one finished invocation and records a wrong answer; it
// reports whether the invocation succeeded.
func (e *env) checkCLI(op cliOp, r procResult, grid []point) bool {
	if r.timedOut {
		if op.kind != opTail || tailSet[op.index].Band != bandHeavy {
			note("%v hit the %v deadline", op.args, cliDeadline)
		}
		return false
	}
	if r.err != nil {
		note("failed: %v", r.err)
		return false
	}
	var err error
	switch op.kind {
	case opSolve:
		return e.checkSolveJSON("solve -json", grid[op.index], r.out)
	case opMulti:
		err = multiAnswer(r.out)
	case opTail:
		var sp float64
		sp, err = textTail(r.out)
		if band := tailSet[op.index].Band; err == nil && !inBand(band, sp) {
			err = fmt.Errorf("sp(R) %g outside the %s band", sp, band)
		}
	}
	if err != nil {
		e.tally.wrongAnswer("%v: %v", op.args, err)
		return false
	}
	return true
}

// runCLISolve is the cli-solve workload: the solver layers (mat, qbd, core,
// multiclass) do nearly all of its work, behind one process start per
// answer.
func runCLISolve(e *env) error {
	grid, multi := cliGrid(e.seed), multiGrid(e.seed)
	if e.trace {
		return traceCLISolve(e, grid, multi)
	}
	timed, heavy := cliOps(grid, multi)
	// The heavy tail points run once each, into the deadline: they are the
	// run's failed operations, and their walls are the deadline's.
	for _, op := range heavy {
		e.tally.op(e.checkCLI(op, e.bgperf(cliDeadline, op.args...), grid))
	}
	e.rounds = max(1, int((e.budget-time.Duration(len(heavy))*cliDeadline)/cliRoundCost))
	best := make([]float64, len(timed)) // per invocation, the fastest wall in seconds
	for i := range best {
		best[i] = math.Inf(1)
	}
	var startups []float64
	order := newRand(e.seed, streamOrder)
	for r := 0; r < e.rounds; r++ {
		startups = append(startups, e.startupTimes(2)...)
		for k, i := range order.Perm(len(timed)) {
			if k%9 == 0 {
				if err := e.sampleCalibration(); err != nil {
					return err
				}
			}
			res := e.bgperf(cliDeadline, timed[i].args...)
			e.tally.op(e.checkCLI(timed[i], res, grid))
			best[i] = math.Min(best[i], res.wall.Seconds())
		}
	}
	note("%d rounds of %d timed invocations (%d -json, %d multi, %d text-mode tail) and %d heavy tail points once",
		e.rounds, len(timed), len(grid), len(multi), len(timed)-len(grid)-len(multi), len(heavy))
	e.set("setup_s", median(startups), "s")
	e.setFixedWork(best)
	return nil
}

// setFixedWork sets wall_s, op_p50_ms and op_p90_ms from the fastest wall
// of each operation of a fixed set, each run once per round. Other tenants
// of the host slow it down in spells of seconds and never speed it up, so
// the fastest of an operation's rounds, spread over the whole run, is the
// steadiest estimate of what the program costs; wall_s is their sum, the
// fixed work done once.
func (e *env) setFixedWork(best []float64) {
	wall := 0.0
	for _, b := range best {
		wall += b
	}
	e.set("wall_s", wall, "s")
	bestMs := ms(best)
	e.set("op_p50_ms", median(bestMs), "ms")
	e.set("op_p90_ms", tailPercentile("op_p90_ms", bestMs, 0.9), "ms")
	order := slices.Clone(bestMs)
	slices.Sort(order)
	note("fastest walls by rank (ms): min %.3g, p25 %.3g, p50 %.3g, p75 %.3g, p90 %.3g, max %.3g",
		order[0], order[len(order)/4], order[len(order)/2], order[3*len(order)/4], order[9*len(order)/10], order[len(order)-1])
	note("top walls (ms): %.4g", order[len(order)-20:])
}

// traceCLISolve takes the cli-solve per-layer ledger. Every grid and
// two-class invocation runs twice in a row, plain and with -diag, so the
// tracing overhead is measured on the same invocations at the same moment;
// the -diag ledgers give the stage split. Then the tail cost per band, an
// in-process replay of the -json grid for the exact matrix-multiply count,
// the baseline probes, and one `bgperf check` shard for the simulator and
// harness ledger.
func traceCLISolve(e *env, grid []point, multi []multiPoint) error {
	e.set("bgperf.exec_ms", 1000*median(e.startupTimes(11)), "ms")
	solveL, multiL := newLedger(), newLedger()
	var plain, traced float64
	timeouts := 0
	f := filepath.Join(e.work, "diag.json")
	timed, heavy := cliOps(grid, multi)
	for _, op := range append(timed, heavy...) {
		r := e.bgperf(cliDeadline, op.args...)
		ok := e.checkCLI(op, r, grid)
		e.tally.op(ok)
		if op.kind == opTail {
			if r.timedOut {
				timeouts++
			}
			continue
		}
		rt := e.bgperf(cliDeadline, append(slices.Clip(op.args), "-diag", f)...)
		okT := e.checkCLI(op, rt, grid)
		e.tally.op(okT)
		rep, err := readDiag(f)
		if !ok || !okT || err != nil {
			continue
		}
		plain += r.wall.Seconds()
		traced += rt.wall.Seconds()
		if op.kind == opSolve {
			solveL.add(rep)
		} else {
			multiL.add(rep)
		}
	}
	e.set("trace.overhead_frac", traced/plain-1, "ratio")
	solveL.report(e)
	e.set("multiclass.solve_ms", 1000*multiL.total(), "ms")
	note("-json grid stage split over %d solves: %s", len(grid), solveL.split())

	// Tail cost: text mode minus -json for the light and moderate points,
	// each the median of 5 interleaved pairs.
	var tailMs float64
	for _, tp := range tailSet {
		if tp.Band == bandHeavy {
			continue
		}
		var diffs []float64
		for k := 0; k < 5; k++ {
			text := e.bgperf(cliDeadline, append([]string{"solve"}, tp.Point.args()...)...)
			js := e.bgperf(cliDeadline, append([]string{"solve", "-json"}, tp.Point.args()...)...)
			okText := text.err == nil
			if _, err := textTail(text.out); okText && err != nil {
				e.tally.wrongAnswer("solve %v: %v", tp.Point.args(), err)
				okText = false
			}
			e.tally.op(okText)
			e.tally.op(js.err == nil && e.checkSolveJSON("tail -json", tp.Point, js.out))
			diffs = append(diffs, 1000*(text.wall-js.wall).Seconds())
		}
		tailMs += median(diffs)
		note("tail %s %v: text minus -json %.2f ms", tp.Band, tp.Point.args(), median(diffs))
	}
	e.set("core.tail_ms", tailMs, "ms")
	e.set("core.tail_timeouts", float64(timeouts), "count")

	// Exact multiply count of the -json grid through the public API.
	before := mat.MulCount()
	for _, p := range grid {
		e.tally.op(replaySolve(p) == nil)
	}
	e.set("mat.mul_count", float64(mat.MulCount()-before), "count")

	baselineProbes(e)
	return traceCheck(e)
}

// replaySolve solves p in process through core.NewModel and Model.Solve,
// with the daemon's request defaulting.
func replaySolve(p point) error {
	req := serve.SolveRequest{
		Workload: p.Workload, Utilization: p.Util, BGProb: p.P, BGBuffer: &p.Buffer,
		IdleMult: p.IdleMult, Policy: p.Policy, ServiceSCV: p.ServiceSCV, ModFactor: p.ModFactor,
		BGAdmit: p.Admit, FGThreshold: p.FGThreshold, DeadlineRate: p.DeadlineRate,
	}
	cfg, err := req.Config()
	if err != nil {
		return err
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		return err
	}
	_, err = m.Solve()
	return err
}

// baselineProbes re-measures the solver baselines recorded in ROADMAP.md
// with -diag: the paper-default solve and the X = 40, SCV 0.5 point. They
// are printed as notes, not metrics.
func baselineProbes(e *env) {
	probes := []struct {
		name string
		args []string
		reps int
	}{
		{"paper-default solve (E-mail, X=5)", nil, 9},
		{"large point (E-mail, X=40, SCV 0.5)", []string{"-buffer", "40", "-servicescv", "0.5"}, 3},
	}
	for _, pr := range probes {
		var walls []float64
		l := newLedger()
		for i := 0; i < pr.reps; i++ {
			f := filepath.Join(e.work, "probe.json")
			r := e.bgperf(cliDeadline, append(append([]string{"solve", "-json"}, pr.args...), "-diag", f)...)
			e.tally.op(r.err == nil)
			walls = append(walls, r.wall.Seconds())
			if rep, err := readDiag(f); err == nil {
				l.add(rep)
			}
		}
		note("baseline %s: process wall %.2f ms (median of %d), solver %s", pr.name, 1000*median(walls), pr.reps, l.split())
	}
}
