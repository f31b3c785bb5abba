package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"bgperf/internal/check"
	"bgperf/internal/obs"
)

// The conformance run, `bgperf check`, is not a timed workload: each seed
// draws its own case mix, and the cost of a shard moves by up to ±25% from
// seed to seed, more than the benchmark's bounds allow. A traced cli-solve
// run checks one shard of confN cases with -diag for the ledger of the
// simulator and the harness (sim.*, check.*).
const (
	confN        = 64
	confDeadline = 60 * time.Second
	// planSeedOffset is the offset `bgperf check -seed s` adds to s for its
	// plan-inversion oracle (planSeedOffset in internal/check/run.go); the
	// in-process timing of the oracle must use the same cases.
	planSeedOffset = 7_654_321
)

var checkSummary = regexp.MustCompile(`(?m)^(PASS|FAIL): (\d+) cases, \d+ metric comparisons \((\d+) disagree\), \d+ invariant checks \((\d+) violated\)$`)

// checkVerdict is the parsed outcome of one `bgperf check` invocation.
type checkVerdict struct {
	pass                      bool
	disagreements, violations int
}

// parseCheck reads a text-mode `bgperf check` report and verifies it is
// consistent: the verdict matches the counts, the listed disagreements and
// violations match the counts, and the exit status matches the verdict.
func parseCheck(out []byte, exitOK bool, n int) (checkVerdict, error) {
	m := checkSummary.FindSubmatch(out)
	if m == nil {
		return checkVerdict{}, fmt.Errorf("no summary line in %q", out)
	}
	cases, _ := strconv.Atoi(string(m[2]))
	v := checkVerdict{pass: string(m[1]) == "PASS"}
	v.disagreements, _ = strconv.Atoi(string(m[3]))
	v.violations, _ = strconv.Atoi(string(m[4]))
	switch {
	case cases != n:
		return v, fmt.Errorf("checked %d cases, asked for %d", cases, n)
	case v.pass != (v.disagreements == 0 && v.violations == 0):
		return v, fmt.Errorf("verdict %s with %d disagreements and %d violations", m[1], v.disagreements, v.violations)
	case v.pass != exitOK:
		return v, fmt.Errorf("verdict %s but exit status ok=%v", m[1], exitOK)
	case bytes.Count(out, []byte("\ndisagreement: ")) != v.disagreements ||
		bytes.Count(out, []byte("\nviolation: ")) != v.violations:
		return v, fmt.Errorf("listed findings do not match the counts")
	}
	return v, nil
}

// checkShard runs `bgperf check -n confN` with a -diag report on the run's
// seed times 1000 and returns the verdict, the -diag ledger and the wall in
// seconds. A FAIL verdict is the harness reporting a solver or simulator
// disagreement: the shard counts as a failed operation. A report that is
// inconsistent with itself is a wrong answer.
func (e *env) checkShard() (checkVerdict, *ledger, float64) {
	seed := e.seed * 1000
	diag := filepath.Join(e.work, "check.json")
	r := e.bgperf(confDeadline, "check", "-n", strconv.Itoa(confN), "-seed", strconv.FormatInt(seed, 10),
		"-workers", "2", "-diag", diag)
	l := newLedger()
	if r.timedOut {
		note("check -seed %d hit the %v deadline", seed, confDeadline)
		e.tally.op(false)
		return checkVerdict{}, l, r.wall.Seconds()
	}
	v, err := parseCheck(r.out, r.err == nil, confN)
	if err == nil {
		var rep obs.Report
		if rep, err = readDiag(diag); err == nil {
			l.add(rep)
		}
	}
	if err != nil {
		e.tally.wrongAnswer("check -seed %d: %v", seed, err)
		e.tally.op(false)
		return v, l, r.wall.Seconds()
	}
	if !v.pass {
		note("check -n %d -seed %d: FAIL with %d disagreements, %d violations", confN, seed, v.disagreements, v.violations)
	}
	e.tally.op(v.pass)
	return v, l, r.wall.Seconds()
}

// traceCheck runs one `bgperf check` shard with -diag on the run's seed
// and sets the simulator and harness ledger. The -diag ledger sees the case
// solves and the simulator but not the plan-inversion oracle's bisection
// solves, so the exported oracle is timed in process on the cases the shard
// gives it.
func traceCheck(e *env) error {
	found, l, wall := e.checkShard()
	t0 := time.Now()
	if _, _, err := check.PlanInversion(context.Background(), confN, e.seed*1000+planSeedOffset); err != nil {
		return err
	}
	planS := time.Since(t0).Seconds()
	e.set("check.plan_oracle_ms", 1000*planS, "ms")
	e.set("sim.events", float64(l.simEvents), "count")
	e.set("sim.runs", float64(l.simRuns), "count")
	e.set("sim.events_per_s", float64(l.simEvents)/wall, "1/s")
	e.set("check.disagreements", float64(found.disagreements), "count")
	e.set("check.violations", float64(found.violations), "count")
	note("check -n %d: %.2f s, plan-inversion oracle %.2f s in process; %d sim events; solver stages inside the harness: %s",
		confN, wall, planS, l.simEvents, l.split())
	return nil
}
