package main

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// point is one model configuration in the daemon's wire format (the JSON
// body of POST /v1/solve, docs/API.md); args gives the equivalent
// `bgperf solve` flags.
type point struct {
	Workload     string  `json:"workload"`
	Util         float64 `json:"utilization"`
	P            float64 `json:"bgProb"`
	Buffer       int     `json:"bgBuffer"`
	IdleMult     float64 `json:"idleMult,omitempty"`
	Policy       string  `json:"policy,omitempty"`
	ServiceSCV   float64 `json:"serviceSCV,omitempty"`
	ModFactor    float64 `json:"modFactor,omitempty"`
	Admit        string  `json:"bgAdmit,omitempty"`
	FGThreshold  int     `json:"fgThreshold,omitempty"`
	DeadlineRate float64 `json:"deadlineRate,omitempty"`
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (p point) args() []string {
	a := []string{"-workload", p.Workload, "-util", fmtF(p.Util), "-p", fmtF(p.P), "-buffer", strconv.Itoa(p.Buffer)}
	if p.IdleMult != 0 {
		a = append(a, "-idlemult", fmtF(p.IdleMult))
	}
	if p.Policy != "" {
		a = append(a, "-policy", p.Policy)
	}
	if p.ServiceSCV != 0 {
		a = append(a, "-servicescv", fmtF(p.ServiceSCV))
	}
	if p.ModFactor != 0 {
		a = append(a, "-mod", fmtF(p.ModFactor))
	}
	if p.Admit != "" {
		a = append(a, "-admit", p.Admit, "-fgthreshold", strconv.Itoa(p.FGThreshold),
			"-deadlinerate", fmtF(p.DeadlineRate))
	}
	return a
}

// multiPoint is one two-class `bgperf multi` configuration.
type multiPoint struct {
	Workload         string
	Util, P1, P2     float64
	Buffer1, Buffer2 int
	IdleMult         float64
}

func (m multiPoint) args() []string {
	return []string{"-workload", m.Workload, "-util", fmtF(m.Util), "-p1", fmtF(m.P1), "-p2", fmtF(m.P2),
		"-buffer1", strconv.Itoa(m.Buffer1), "-buffer2", strconv.Itoa(m.Buffer2), "-idlemult", fmtF(m.IdleMult)}
}

// catalog lists the six arrival processes the CLI and daemon know.
var catalog = []string{"email", "softdev", "useraccounts", "email-lowacf", "email-ipp", "poisson"}

// Stream tags keep each input family on its own random stream, so growing
// one family never shifts another.
const (
	streamGrid = iota + 1
	streamMulti
	streamSweeps
	streamPool
	streamBacklog
	streamSchedule
	streamParity
	streamOrder
	streamRounds
	streamWarmPlans
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919))
}

// slot fixes the choices of one grid point that set the cost of its solve:
// the arrival, scenario, threshold/policy index, buffer and service SCV set
// the R order, and utilisation, p, the idle wait and the scenario's φ or δ
// (mod, in [0, 1)) set the iteration count.
type slot struct {
	arrival, scenario, k, buffer int
	scv, util, p, idle, mod      float64
}

// gridPoint builds the point of a slot, moving p, the idle wait and φ or δ
// by up to ±jitter (relative) with draws from r. Modulated points keep
// util ≤ 0.5 with φ ≥ 0.6, so the FG load stays below the slowed service
// rate and every point is stable.
func gridPoint(r *rand.Rand, s slot, jitter float64) point {
	j := func(v float64) float64 { return v * (1 + jitter*(2*r.Float64()-1)) }
	p := point{
		Workload: catalog[s.arrival%len(catalog)],
		Util:     s.util,
		P:        j(s.p),
		Buffer:   s.buffer,
		IdleMult: j(s.idle),
		Policy:   []string{"per-job", "per-period"}[s.k%2],
	}
	if s.scv != 1 {
		p.ServiceSCV = s.scv
	}
	switch s.scenario % 6 {
	case 0:
		p.Util = math.Min(p.Util, 0.5)
		p.ModFactor = math.Min(j(0.6+0.35*s.mod), 0.95)
	case 1:
		p.Admit, p.FGThreshold = "util-threshold", s.k%4
	case 2:
		p.Admit, p.DeadlineRate = "deadline", j(0.05+0.45*s.mod)
	}
	return p
}

// frac spreads slot indices over [0, 1) (a golden-ratio sequence), so that
// p and the idle wait are decorrelated from the utilisation order.
func frac(i int, step float64) float64 { _, f := math.Modf(float64(i) * step); return f }

// gridJitter is how far, relatively, the seed moves the continuous
// parameters of a grid slot: enough that every seed checks different
// answers, little enough that no slot changes its cost rank.
const gridJitter = 0.03

// gridCell is one stratum of the cli-solve grid. Every choice that sets the
// cost of a solve is fixed by the slot, so the work of a pass, and the
// slots its percentiles fall on, are the same for every seed; the seed
// moves the continuous parameters within ±gridJitter, so the answers
// checked differ from seed to seed.
type gridCell struct {
	xs     []int // buffer per slot, cycled
	count  int
	lo, hi float64 // utilisation range, one level per slot
	same   bool    // one shape for every slot: Soft.Dev, per-job, plain admission, p 0.3, idle wait 1.5
}

// gridCells are the strata of the grid at one service SCV. The largest
// buffers cost the most at SCV 0.5 and 2, so there the top cells stop at
// X = 30, and X = 40 is solved at SCV 1 (about 0.2 s, against 0.55–0.85 s
// at the other two): no single solve outweighs the rest of a round.
func gridCells(scv float64) []gridCell {
	large, top := []int{16, 24}, 30
	if scv == 1 {
		large, top = []int{16, 30}, 40
	}
	cells := []gridCell{
		{xs: []int{0, 1, 2, 3, 4, 5}, count: 24, lo: 0.05, hi: 0.7},
		{xs: []int{6, 8, 10, 11, 13, 15}, count: 6, lo: 0.05, hi: 0.7},
		{xs: []int{14}, count: 2, lo: 0.3, hi: 0.6},
		{xs: large, count: 2, lo: 0.2, hi: 0.5},
		{xs: []int{top}, count: 1, lo: 0.3, hi: 0.4},
	}
	if scv == 2 {
		// Eight solves of one shape, costing a little less than the eight
		// largest points of the grid: op_p90 falls among them, so it reads
		// one kind of solve rather than the edge between two.
		cells = append(cells, gridCell{xs: []int{15}, count: 8, lo: 0.44, hi: 0.46, same: true})
	}
	return cells
}

// cliGrid is the seeded `bgperf solve -json` grid: every cell for each
// service SCV in {0.5, 1, 2}, 113 points. Slot k of a cell of n takes the
// centre of the k-th of n equal utilisation bands; slot k = 6a + b cycles
// the buffer by b and the arrival and scenario by a, so every buffer meets
// several of each.
func cliGrid(seed int64) []point {
	r := newRand(seed, streamGrid)
	var out []point
	i := 0
	for si, scv := range []float64{0.5, 1, 2} {
		for _, c := range gridCells(scv) {
			for k := 0; k < c.count; k++ {
				a, b := k/6, k%6
				scenario := a + b
				if c.count < 6 {
					scenario = 3 // a plain point: the large cells stay comparable across SCVs
				}
				s := slot{
					arrival: si + a + b, scenario: scenario, k: a, buffer: c.xs[b%len(c.xs)], scv: scv,
					util: c.lo + (c.hi-c.lo)*(float64(k)+0.5)/float64(c.count),
					p:    0.05 + 0.55*frac(i, 0.618034), idle: 0.5 + 2.5*frac(i, 0.381966),
					mod: frac(i, 0.7548776),
				}
				if c.same {
					s.arrival, s.scenario, s.k, s.buffer, s.p, s.idle = 1, 3, 0, c.xs[0], 0.3, 1.5
				}
				out = append(out, gridPoint(r, s, gridJitter))
				i++
			}
		}
	}
	return out
}

// multiGrid is the seeded two-class share of the cli-solve grid, laid out
// like cliGrid: fixed buffers and utilisation per slot, and p1, p2 and the
// idle wait within ±gridJitter of the slot's values.
func multiGrid(seed int64) []multiPoint {
	r := newRand(seed, streamMulti)
	out := make([]multiPoint, 12)
	j := func(v float64) float64 { return v * (1 + gridJitter*(2*r.Float64()-1)) }
	for k := range out {
		out[k] = multiPoint{
			Workload: catalog[k%len(catalog)],
			Util:     0.05 + 0.35*(float64(k)+0.5)/float64(len(out)),
			P1:       j(0.05 + 0.35*frac(k, 0.618034)),
			P2:       j(0.05 + 0.35*frac(k, 0.381966)),
			Buffer1:  1 + k%3,
			Buffer2:  1 + (k/3)%3,
			IdleMult: j(0.5 + 2.5*frac(k, 0.7548776)),
		}
	}
	return out
}

// Tail bands by the tail decay rate sp(R).
const (
	bandLight    = "light"    // sp(R) < 0.99
	bandModerate = "moderate" // 0.99 ≤ sp(R) ≤ 0.9999
	bandHeavy    = "heavy"    // sp(R) > 0.99999
)

type tailPoint struct {
	Band  string
	Point point
}

// tailSet is the fixed text-mode set. Text mode adds the FG queue standard
// deviation, sp(R) and the q50/q95/q99 quantiles, whose level-by-level walk
// grows with the queue length: light and moderate points finish in
// milliseconds, while the heavy points (E-mail at util 0.2, sp(R) ≈
// 0.999994, and the util 0.7 defect point, sp(R) ≈ 0.9999991) walk for
// seconds to minutes and hit the deadline.
var tailSet = []tailPoint{
	{bandLight, point{Workload: "softdev", Util: 0.3, P: 0.3, Buffer: 5}},
	{bandLight, point{Workload: "email", Util: 0.1, P: 0.3, Buffer: 5}},
	{bandLight, point{Workload: "useraccounts", Util: 0.05, P: 0.3, Buffer: 5}},
	{bandModerate, point{Workload: "useraccounts", Util: 0.2, P: 0.3, Buffer: 5}},
	{bandModerate, point{Workload: "useraccounts", Util: 0.3, P: 0.3, Buffer: 5}},
	{bandModerate, point{Workload: "useraccounts", Util: 0.5, P: 0.3, Buffer: 5}},
	{bandHeavy, point{Workload: "email", Util: 0.2, P: 0.3, Buffer: 5}},
	{bandHeavy, point{Workload: "email", Util: 0.7, P: 0.3, Buffer: 5}},
}

func inBand(band string, sp float64) bool {
	switch band {
	case bandLight:
		return sp < 0.99
	case bandModerate:
		return sp >= 0.99 && sp <= 0.9999
	default:
		return sp > 0.99999
	}
}

// softdevSweep is the i-th seeded 90-point Soft.Dev grid: 9 utilisations ×
// 10 BG probabilities, each jittered per seed, at the paper's buffer X = 5
// and alternating idle policies. The idle multiple, common to all points of
// a grid, is a fixed slot of grid i within ±gridJitter, so the cost of the
// i-th grid is nearly the same for every seed; the continuous jitter makes
// every grid's keys new to the daemon.
func softdevSweep(seed int64, stream, i int) []point {
	r := newRand(seed*131+int64(i), stream)
	x := 5
	idle := (0.5 + 2.5*frac(i, 0.618034)) * (1 + gridJitter*(2*r.Float64()-1))
	policy := []string{"per-job", "per-period"}[i%2]
	out := make([]point, 0, 90)
	for u := 0; u < 9; u++ {
		for j := 0; j < 10; j++ {
			out = append(out, point{
				Workload: "softdev",
				Util:     0.05 + 0.06*float64(u) + 0.01*r.Float64(),
				P:        0.05 + 0.09*float64(j) + 0.01*r.Float64(),
				Buffer:   x,
				IdleMult: idle,
				Policy:   policy,
			})
		}
	}
	return out
}

// daemonPool is the popular pool the daemon is prefilled with, read back
// with Zipf popularity during the open loop. Like cliGrid it is a fixed
// design of slots: slot i has its arrival, scenario, buffer (0–8), service
// SCV and utilisation fixed, and the seed moves only p, the idle wait and φ
// or δ within ±gridJitter. It is small enough that most reads after the
// first touches hit memory.
func daemonPool(seed int64) []point {
	r := newRand(seed, streamPool)
	out := make([]point, 64)
	for i := range out {
		out[i] = gridPoint(r, slot{
			arrival: i, scenario: i / 6, k: i / 3, buffer: i * 5 % 9, scv: []float64{1, 0.5, 1, 2}[i%4],
			util: 0.05 + 0.55*frac(i, 0.7548776), p: 0.05 + 0.55*frac(i, 0.618034),
			idle: 0.5 + 2.5*frac(i, 0.381966), mod: frac(i, 0.5698403),
		}, gridJitter)
	}
	return out
}

// request kinds of the open-loop mix.
const (
	reqRead     = "read"     // /v1/solve, a pool key (Zipf)
	reqWrite    = "write"    // /v1/solve, a never-seen key
	reqSweep    = "sweep"    // /v1/sweep, 6 pool + 2 new points
	reqPlan     = "plan"     // /v1/optimize, a never-seen plan
	reqPlanWarm = "planwarm" // /v1/optimize, a plan this node answered before
	reqScrape   = "scrape"   // GET /metrics
)

// request is one scheduled open-loop request.
type request struct {
	Due    time.Duration `json:"due"`
	Node   int           `json:"node"`
	Kind   string        `json:"kind"`
	Points []point       `json:"points,omitempty"`
	Plan   *planRequest  `json:"plan,omitempty"`
}

// planRequest is the JSON body of POST /v1/optimize: a point plus a bound
// on the fraction of FG arrivals delayed by BG work. The bound holds at
// p → 0, so every plan is feasible, and at 0.2–2% it binds well inside
// (0, 1], so the bisection takes about 15–20 solves.
type planRequest struct {
	point
	SLO struct {
		WaitPFG float64 `json:"waitPFG"`
	} `json:"slo"`
}

// freshPlan draws the k-th never-seen plan of a segment. Plans share one
// small model family (Soft.Dev, X = 2) on four utilisation slots, and the
// seed moves the utilisation and the SLO within ±gridJitter, so their cost
// is nearly the same from seed to seed while no two plans share a key.
func freshPlan(r *rand.Rand, k int) *planRequest {
	j := func(v float64) float64 { return v * (1 + gridJitter*(2*r.Float64()-1)) }
	q := &planRequest{point: point{Workload: "softdev", Util: j(0.2 + 0.03*float64(k%4)), P: 0.3, Buffer: 2}}
	q.SLO.WaitPFG = j(0.0075)
	return q
}

// freshPoint draws the k-th never-seen point of a segment: a fixed slot that
// cycles the six arrivals, both idle policies and buffers of 1 and 2 with
// plain admission and SCV 1, so every new solve costs about the same from
// seed to seed. The seed moves p and the idle wait within ±gridJitter,
// which makes a repeated key have probability zero.
func freshPoint(r *rand.Rand, k int) point {
	return gridPoint(r, slot{
		arrival: k, scenario: 3, k: k / 6, buffer: 1 + k/12%2, scv: 1,
		util: 0.05 + 0.5*frac(k, 0.7548776), p: 0.05 + 0.55*frac(k, 0.618034), idle: 0.5 + 2.5*frac(k, 0.381966),
	}, gridJitter)
}

// mixShares are the open-loop request shares of a traced run, scrapes
// aside. They are synthetic: no recorded traffic or document in the
// repository describes a workload for bgperfd, so the shares, the Zipf
// exponent, the pool size, the nominal rate and the scrape period were
// chosen, and the shares tuned so that at the nominal rung the median is a
// pool read answered from memory, the p90 a sweep and the p99 a new
// /v1/optimize plan.
var mixShares = []struct {
	kind  string
	share float64
}{{reqRead, 0.77}, {reqWrite, 0.08}, {reqSweep, 0.12}, {reqPlan, 0.02}, {reqPlanWarm, 0.01}}

// scrapePeriod is the operator monitor's /metrics period.
const scrapePeriod = 500 * time.Millisecond

// schedule draws the open-loop request sequence of one segment: exactly
// rps·dur arrivals at uniform random times over dur (a Poisson process
// conditioned on its count, so every seed offers the same load),
// round-robin over two nodes, plus a /metrics scrape every scrapePeriod.
// The kinds are an exact multiset by mixShares, shuffled, so every seed
// sends the same number of each kind. A warm plan repeats one the same
// node was sent at least ten requests earlier in the segment.
func schedule(seed int64, segment int, rps float64, dur time.Duration, pool []point) []request {
	r := newRand(seed*17+int64(segment), streamSchedule)
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(pool)-1))
	times := make([]time.Duration, int(rps*dur.Seconds()+0.5))
	for i := range times {
		times[i] = time.Duration(r.Float64() * float64(dur))
	}
	slices.Sort(times)
	kinds := make([]string, 0, len(times))
	cum := 0.0
	for _, m := range mixShares {
		cum += m.share
		for len(kinds) < int(cum*float64(len(times))+0.5) {
			kinds = append(kinds, m.kind)
		}
	}
	for len(kinds) < len(times) {
		kinds = append(kinds, reqRead)
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var out []request
	var sent [2][]int // per node, indices of plan requests in out
	var fresh, plans int
	newPoint := func() point { fresh++; return freshPoint(r, fresh-1) }
	scrape := scrapePeriod / 2
	for i, next := range times {
		for scrape < next {
			out = append(out, request{Due: scrape, Node: len(out) % 2, Kind: reqScrape})
			scrape += scrapePeriod
		}
		q := request{Due: next, Node: len(out) % 2, Kind: kinds[i]}
		switch q.Kind {
		case reqRead:
			q.Points = []point{pool[zipf.Uint64()]}
		case reqWrite:
			q.Points = []point{newPoint()}
		case reqSweep:
			for k := 0; k < 6; k++ {
				q.Points = append(q.Points, pool[zipf.Uint64()])
			}
			q.Points = append(q.Points, newPoint(), newPoint())
		case reqPlanWarm:
			var old []int
			for _, i := range sent[q.Node] {
				if i < len(out)-10 {
					old = append(old, i)
				}
			}
			if len(old) > 0 {
				q.Plan = out[old[r.Intn(len(old))]].Plan
				break
			}
			// No plan to repeat yet: trade places with the next new plan,
			// so the segment still sends the same number of each kind.
			if j := slices.Index(kinds[i+1:], reqPlan); j >= 0 {
				kinds[i+1+j] = reqPlanWarm
			}
			q.Kind = reqPlan
			fallthrough
		case reqPlan:
			q.Plan = freshPlan(r, plans)
			plans++
			sent[q.Node] = append(sent[q.Node], len(out))
		}
		out = append(out, q)
	}
	return out
}

// Units of one closed-loop round of the daemon-mix workload, besides the
// never-seen 90-point sweep grid: one read per pool key, new single points
// (writes), batch sweeps of 6 pool keys and 2 new points, new plans, plans
// the node answered before (warm) and /metrics scrapes.
const roundReads, roundWrites, roundSweeps, roundPlans, roundWarmPlans, roundScrapes = 64, 16, 12, 4, 2, 2

// roundUnits draws the requests of closed-loop round r in unit order. Unit
// i has the same kind, node and cost-setting slot in every round; its new
// points and plans take new continuous values each round, so they are never
// answered from a cache, while warm plan k is the same plan in every round,
// so from the second round on the node answers it from its plan cache.
func roundUnits(seed int64, round int, pool []point) []request {
	r := newRand(seed*7_919+int64(round), streamRounds)
	var out []request
	for k := 0; k < roundReads; k++ {
		out = append(out, request{Node: k % 2, Kind: reqRead, Points: []point{pool[k%len(pool)]}})
	}
	for k := 0; k < roundWrites; k++ {
		out = append(out, request{Node: k % 2, Kind: reqWrite, Points: []point{freshPoint(r, k)}})
	}
	for k := 0; k < roundSweeps; k++ {
		q := request{Node: k % 2, Kind: reqSweep}
		for m := 0; m < 6; m++ {
			q.Points = append(q.Points, pool[(6*k+m)%len(pool)])
		}
		q.Points = append(q.Points, freshPoint(r, roundWrites+2*k), freshPoint(r, roundWrites+2*k+1))
		out = append(out, q)
	}
	for k := 0; k < roundPlans; k++ {
		out = append(out, request{Node: k % 2, Kind: reqPlan, Plan: freshPlan(r, k)})
	}
	warm := newRand(seed, streamWarmPlans)
	for k := 0; k < roundWarmPlans; k++ {
		out = append(out, request{Node: k % 2, Kind: reqPlanWarm, Plan: freshPlan(warm, k)})
	}
	for k := 0; k < roundScrapes; k++ {
		out = append(out, request{Node: k % 2, Kind: reqScrape})
	}
	return out
}
