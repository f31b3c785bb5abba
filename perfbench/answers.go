package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
)

// invariantTol is the absolute tolerance of the structural invariants, the
// same 1e-9 bgperf check applies.
const invariantTol = 1e-9

// serviceMeanMs is the model's mean FG service time; throughput is λ =
// util / serviceMeanMs per ms.
const serviceMeanMs = 6.0

// solveMetrics is the subset of the metrics object the invariants read.
type solveMetrics struct {
	UtilFG         float64 `json:"utilFG"`
	ThroughputFG   float64 `json:"throughputFG"`
	CompBG         float64 `json:"compBG"`
	ThroughputBG   float64 `json:"throughputBG"`
	GenRateBG      float64 `json:"genRateBG"`
	DropRateBG     float64 `json:"dropRateBG"`
	DeadlineMissBG float64 `json:"deadlineMissBG"`
}

// metricsInvariants checks one metrics object against the point it answers:
// utilFG is the requested utilisation (a lower bound when φ < 1),
// throughputFG = λ, compBG ∈ [0, 1] and BG flow balance.
func metricsInvariants(p point, raw []byte) error {
	var m solveMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("metrics do not parse: %v", err)
	}
	util := p.Util
	if util == 0 { // the native E-mail trace load
		util = m.UtilFG
	}
	switch {
	case p.ModFactor == 0 || p.ModFactor == 1:
		if math.Abs(m.UtilFG-util) > invariantTol {
			return fmt.Errorf("utilFG %g, requested %g", m.UtilFG, util)
		}
	case m.UtilFG < util-invariantTol:
		return fmt.Errorf("utilFG %g below the requested %g under modulation", m.UtilFG, util)
	}
	if math.Abs(m.ThroughputFG-util/serviceMeanMs) > invariantTol {
		return fmt.Errorf("throughputFG %g, want λ = %g", m.ThroughputFG, util/serviceMeanMs)
	}
	if !(m.CompBG >= -invariantTol && m.CompBG <= 1+invariantTol) {
		return fmt.Errorf("compBG %g outside [0, 1]", m.CompBG)
	}
	if want := (m.GenRateBG - m.DropRateBG) * (1 - m.DeadlineMissBG); math.Abs(m.ThroughputBG-want) > invariantTol {
		return fmt.Errorf("BG flow balance: throughputBG %g, want %g", m.ThroughputBG, want)
	}
	return nil
}

// firstJSON returns the first JSON value of out (a -diag run appends a text
// summary after it).
func firstJSON(out []byte) (json.RawMessage, error) {
	var raw json.RawMessage
	err := json.NewDecoder(bytes.NewReader(out)).Decode(&raw)
	return raw, err
}

// checkSolveJSON verifies a `bgperf solve -json` answer and records a wrong
// one.
func (e *env) checkSolveJSON(what string, p point, out []byte) bool {
	raw, err := firstJSON(out)
	if err == nil {
		err = metricsInvariants(p, raw)
	}
	if err != nil {
		e.tally.wrongAnswer("%s %v: %v", what, p.args(), err)
		return false
	}
	return true
}

var (
	spLine        = regexp.MustCompile(`(?m)^tail decay sp\(R\)\s+(\S+)`)
	quantilesLine = regexp.MustCompile(`(?m)^fg qlen quantiles\s+q50=(\d+) q95=(\d+) q99=(\d+)`)
)

// textTail parses the tail block of a text-mode `bgperf solve` answer and
// checks q50 ≤ q95 ≤ q99. It returns sp(R).
func textTail(out []byte) (float64, error) {
	sm := spLine.FindSubmatch(out)
	qm := quantilesLine.FindSubmatch(out)
	if sm == nil || qm == nil {
		return 0, fmt.Errorf("no tail block in %q", out)
	}
	sp, err := strconv.ParseFloat(string(sm[1]), 64)
	if err != nil {
		return 0, err
	}
	var q [3]int
	for i := range q {
		q[i], _ = strconv.Atoi(string(qm[i+1]))
	}
	if q[0] > q[1] || q[1] > q[2] {
		return sp, fmt.Errorf("quantiles out of order: q50=%d q95=%d q99=%d", q[0], q[1], q[2])
	}
	return sp, nil
}

var multiLines = regexp.MustCompile(`(?m)^class-1 completion\s+(\S+)\s*\nclass-2 completion\s+(\S+)\s*\nclass-1/2 queue length\s+(\S+) (\S+)`)

// multiAnswer checks a `bgperf multi` answer: both class completion ratios
// in [0, 1] and finite nonnegative queue lengths.
func multiAnswer(out []byte) error {
	m := multiLines.FindSubmatch(out)
	if m == nil {
		return fmt.Errorf("no class block in %q", out)
	}
	for i, lim := range []float64{1, 1, math.Inf(1), math.Inf(1)} {
		v, err := strconv.ParseFloat(string(m[i+1]), 64)
		if err != nil || !(v >= -invariantTol && v <= lim+invariantTol) || math.IsInf(v, 0) {
			return fmt.Errorf("class value %q out of range", m[i+1])
		}
	}
	return nil
}
