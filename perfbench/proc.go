package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"bgperf/internal/obs"
)

// procResult is one finished child process.
type procResult struct {
	out      []byte
	wall     time.Duration
	err      error // non-nil on a non-zero exit, a kill or a failure to start
	timedOut bool
}

// notePeak folds a finished process's peak RSS into the run's maximum.
func (e *env) notePeak(ps *os.ProcessState) {
	if ps == nil {
		return
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > e.peakKB {
		e.peakKB = ru.Maxrss
	}
}

// bgperf runs the bgperf binary with args, killing it at the deadline. The
// wall time runs from just before the fork to the exit.
func (e *env) bgperf(deadline time.Duration, args ...string) procResult {
	cmd := exec.Command(filepath.Join(e.bin, "bgperf"), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return procResult{err: err}
	}
	timer := time.AfterFunc(deadline, func() { cmd.Process.Kill() })
	err := cmd.Wait()
	wall := time.Since(t0)
	timedOut := !timer.Stop()
	e.notePeak(cmd.ProcessState)
	if err != nil {
		err = fmt.Errorf("bgperf %v: %v: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return procResult{out: out.Bytes(), wall: wall, err: err, timedOut: timedOut}
}

// minimalInvocation is the smallest complete bgperf call: the paper-default
// solve (E-mail, X = 5, R order 22), about a millisecond of solver work.
var minimalInvocation = []string{"solve", "-json"}

// startupTimes runs the minimal invocation n times and returns the walls
// in seconds; a failed or wrong invocation counts as a failed operation.
func (e *env) startupTimes(n int) []float64 {
	var walls []float64
	for i := 0; i < n; i++ {
		r := e.bgperf(cliDeadline, minimalInvocation...)
		ok := r.err == nil && e.checkSolveJSON("minimal invocation", point{Workload: "email"}, r.out)
		e.tally.op(ok)
		walls = append(walls, r.wall.Seconds())
	}
	return walls
}

// readDiag parses a -diag report.
func readDiag(path string) (obs.Report, error) {
	var rep obs.Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(b, &rep)
}

// ledger sums stage ledgers over many -diag reports.
type ledger struct {
	stages             map[string]float64 // stage → seconds
	solves             int64
	rIterations        int64
	wsHits, wsMisses   int64
	simRuns, simEvents int64
}

func newLedger() *ledger { return &ledger{stages: map[string]float64{}} }

func (l *ledger) add(rep obs.Report) {
	for name, s := range rep.Stages {
		l.stages[name] += s.Seconds
	}
	l.rIterations += rep.RIterations
	l.solves += rep.Solves
	l.wsHits += rep.Workspace.Hits()
	l.wsMisses += rep.Workspace.Misses()
	l.simRuns += rep.SimRuns
	l.simEvents += rep.Sim.Events
}

func (l *ledger) total() float64 {
	var t float64
	for _, s := range l.stages {
		t += s
	}
	return t
}

// report sets the solver-stage metrics from the ledger.
func (l *ledger) report(e *env) {
	e.set("core.build_ms", 1000*l.stages[obs.StageBuild.String()], "ms")
	e.set("core.metrics_ms", 1000*l.stages[obs.StageMetrics.String()], "ms")
	e.set("qbd.rsolve_ms", 1000*l.stages[obs.StageRSolve.String()], "ms")
	e.set("qbd.boundary_ms", 1000*l.stages[obs.StageBoundary.String()], "ms")
	e.set("qbd.r_iterations", float64(l.rIterations), "count")
	if n := l.wsHits + l.wsMisses; n > 0 {
		e.set("mat.ws_hit_ratio", float64(l.wsHits)/float64(n), "ratio")
	}
}

// split formats the stage shares of a ledger, as in the ROADMAP baselines.
func (l *ledger) split() string {
	t := l.total()
	if t == 0 {
		return "no stages"
	}
	s := fmt.Sprintf("%.3f ms per solve over %d:", 1000*t/float64(max(l.solves, 1)), l.solves)
	for _, st := range []obs.Stage{obs.StageRSolve, obs.StageBuild, obs.StageBoundary, obs.StageMetrics} {
		s += fmt.Sprintf(" %s %.0f%%", st, 100*l.stages[st.String()]/t)
	}
	return s
}
