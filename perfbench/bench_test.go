package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// inputs serialises every seeded input family of one seed.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	pool := daemonPool(seed)
	var sweeps [][]point
	for g := 0; g <= len(segments); g++ {
		sweeps = append(sweeps, softdevSweep(seed, streamSweeps, g), softdevSweep(seed, streamBacklog, g))
	}
	var sched, rounds [][]request
	for i, seg := range segments {
		sched = append(sched, schedule(seed, i, rungs[seg.rung], 2*time.Second, pool))
	}
	for r := 0; r < 3; r++ {
		rounds = append(rounds, roundUnits(seed, r, pool))
	}
	b, err := json.Marshal(struct {
		Grid     []point
		Multi    []multiPoint
		Tail     []tailPoint
		Sweeps   [][]point
		Pool     []point
		Schedule [][]request
		Rounds   [][]request
	}{cliGrid(seed), multiGrid(seed), tailSet, sweeps, pool, sched, rounds})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b, c := inputs(t, 7), inputs(t, 7), inputs(t, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds generated identical inputs")
	}
	// Each seeded family differs on its own, not just the whole.
	if bytes.Equal(mustJSON(t, cliGrid(7)), mustJSON(t, cliGrid(8))) ||
		bytes.Equal(mustJSON(t, schedule(7, 0, 100, time.Second, daemonPool(7))),
			mustJSON(t, schedule(8, 0, 100, time.Second, daemonPool(8)))) {
		t.Fatal("grid or schedule ignores the seed")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGridStrata(t *testing.T) {
	grid := cliGrid(3)
	if len(grid) != 113 {
		t.Fatalf("grid has %d points, want 113", len(grid))
	}
	var x40 int
	for _, p := range grid {
		if p.Buffer == 40 {
			x40++
		}
		if p.ModFactor != 0 && p.Util/p.ModFactor >= 1 {
			t.Errorf("modulated point %v is unstable", p.args())
		}
	}
	if x40 != 1 {
		t.Errorf("%d X = 40 points, want one", x40)
	}
}

// costShape is the part of a point that sets the cost of its solve, with
// utilisation rounded past the jitter of the continuous parameters.
func costShape(p point) point {
	return point{Workload: p.Workload, Util: math.Round(p.Util * 100), Buffer: p.Buffer, Policy: p.Policy,
		ServiceSCV: p.ServiceSCV, Admit: p.Admit, FGThreshold: p.FGThreshold}
}

// TestDaemonInputsAreFixedDesign checks that the seed moves only the
// continuous parameters of the daemon inputs: the pool, the sweep grids, the
// new points and plans keep their cost-setting choices, and every segment
// sends the same number of each kind of request, while the keys still
// differ.
func TestDaemonInputsAreFixedDesign(t *testing.T) {
	poolA, poolB := daemonPool(7), daemonPool(8)
	for i := range poolA {
		if costShape(poolA[i]) != costShape(poolB[i]) {
			t.Fatalf("pool slot %d changes with the seed: %v vs %v", i, poolA[i].args(), poolB[i].args())
		}
		if poolA[i].P == poolB[i].P {
			t.Fatalf("pool slot %d ignores the seed", i)
		}
	}
	for g := 0; g < 8; g++ {
		a, b := softdevSweep(7, streamSweeps, g), softdevSweep(8, streamSweeps, g)
		if a[0].Policy != b[0].Policy || math.Abs(a[0].IdleMult/b[0].IdleMult-1) > 2.1*gridJitter {
			t.Fatalf("sweep grid %d changes its idle slot with the seed: %v vs %v", g, a[0].args(), b[0].args())
		}
	}
	kinds := func(seed int64) (map[string]int, []point, []*planRequest) {
		n := map[string]int{}
		var fresh []point
		var plans []*planRequest
		for _, q := range schedule(seed, 0, 300, 3*time.Second, daemonPool(seed)) {
			n[q.Kind]++
			switch q.Kind {
			case reqWrite:
				fresh = append(fresh, q.Points[0])
			case reqPlan:
				plans = append(plans, q.Plan)
			}
		}
		return n, fresh, plans
	}
	nA, freshA, plansA := kinds(7)
	nB, freshB, plansB := kinds(8)
	if len(nA) != len(nB) {
		t.Fatalf("kinds differ: %v vs %v", nA, nB)
	}
	for k, c := range nA {
		if nB[k] != c {
			t.Fatalf("seed 7 sends %d %s requests, seed 8 sends %d", c, k, nB[k])
		}
	}
	if want := int(mixShares[0].share*900 + 0.5); nA[reqRead] != want {
		t.Errorf("%d reads of 900 arrivals, want %d", nA[reqRead], want)
	}
	seen := map[point]bool{}
	for _, p := range append(append([]point(nil), freshA...), freshB...) {
		if seen[p] {
			t.Fatalf("new point %v repeats", p.args())
		}
		seen[p] = true
	}
	for _, p := range poolA {
		if seen[p] {
			t.Fatalf("new point %v is in the pool", p.args())
		}
	}
	for _, q := range append(plansA, plansB...) {
		if q.Buffer != 2 || q.Workload != "softdev" || math.Abs(q.SLO.WaitPFG/0.0075-1) > gridJitter {
			t.Fatalf("plan %+v leaves its model family", *q)
		}
	}
	if len(freshA) == 0 || len(plansA) == 0 {
		t.Fatal("the schedule sends no new points or no new plans")
	}
}

// TestRoundsAreFixedDesign checks that unit i of a closed-loop round has
// the same kind, node and cost-setting slot for every seed and round, that
// its new points and plans are new in every round, and that a warm plan
// repeats in every round.
func TestRoundsAreFixedDesign(t *testing.T) {
	ref := roundUnits(1, 0, daemonPool(1))
	seen := map[point]bool{}
	for _, seed := range []int64{7, 8} {
		pool := daemonPool(seed)
		var warm0 []planRequest
		for r := 0; r < 3; r++ {
			units := roundUnits(seed, r, pool)
			if len(units) != len(ref) {
				t.Fatalf("seed %d round %d has %d units, want %d", seed, r, len(units), len(ref))
			}
			var warm []planRequest
			for i, q := range units {
				if q.Kind != ref[i].Kind || q.Node != ref[i].Node || len(q.Points) != len(ref[i].Points) {
					t.Fatalf("unit %d of seed %d round %d is %s on node %d, want %s on node %d",
						i, seed, r, q.Kind, q.Node, ref[i].Kind, ref[i].Node)
				}
				for k, p := range q.Points {
					if costShape(p) != costShape(ref[i].Points[k]) {
						t.Fatalf("unit %d point %d changes its slot: %v vs %v", i, k, p.args(), ref[i].Points[k].args())
					}
					if q.Kind == reqWrite || (q.Kind == reqSweep && k >= 6) {
						if seen[p] {
							t.Fatalf("new point %v repeats", p.args())
						}
						seen[p] = true
					}
				}
				if q.Kind == reqPlanWarm {
					warm = append(warm, *q.Plan)
				}
			}
			if r == 0 {
				warm0 = warm
			} else if !slices.Equal(warm, warm0) {
				t.Fatalf("seed %d: the warm plans of round %d differ from round 0's", seed, r)
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	if _, err := percentile(xs, 0.91); err == nil {
		t.Fatal("p91 of 100 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:10], 0.5); err == nil {
		t.Fatal("p50 of 10 samples has 5 beyond it and must be refused")
	}
	if q := supported(100, 0.99); q != 0.9 {
		t.Fatalf("highest supported quantile of 100 samples = %v, want 0.9", q)
	}
	if q := supported(10, 0.5); q != 0 {
		t.Fatalf("10 samples support quantile %v, want none", q)
	}
}

// TestOpenLoopTimesFromDue stalls a fake server on one request: the
// requests due during the stall go out late, and their latency counts the
// wait from when they were due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	const reqs, gap = 12, 10 * time.Millisecond
	outs := openLoop(reqs, 1, func(i int) time.Duration { return time.Duration(i) * gap },
		func(int) (int, []byte, error) {
			resp, err := http.Get(srv.URL)
			if err != nil {
				return 0, nil, err
			}
			resp.Body.Close()
			return resp.StatusCode, nil, nil
		})
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("request %d failed: %v", i, o.err)
		}
	}
	// Request 2 stalls; requests 3.. were due during the stall.
	if outs[2].late() > stall/2 {
		t.Errorf("the stalled request itself went out %v late", outs[2].late())
	}
	if l := outs[3].late(); l < stall-2*gap {
		t.Errorf("request due right after the stall went out only %v late", l)
	}
	if lat := outs[3].latency(); lat < stall-2*gap {
		t.Errorf("latency %v of a request queued behind the stall does not count its wait", lat)
	}
	if outs[reqs-1].late() <= 0 {
		t.Error("a single sender cannot have caught up within the stall")
	}
}

// TestBenchmarkJSONMatchesPerfbench keeps BENCHMARK.json and the metric
// lists perfbench prints in step.
func TestBenchmarkJSONMatchesPerfbench(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(spec.Workloads), len(workloads))
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, perfbench %d", len(c.spec), len(c.defs))
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], perfbench %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestAnswerChecks(t *testing.T) {
	good := []byte(`{"utilFG":0.3,"throughputFG":0.05,"compBG":0.8,"throughputBG":0.004,"genRateBG":0.005,"dropRateBG":0.001,"deadlineMissBG":0}`)
	p := point{Workload: "softdev", Util: 0.3}
	if err := metricsInvariants(p, good); err != nil {
		t.Fatalf("consistent answer rejected: %v", err)
	}
	bad := bytes.Replace(good, []byte(`"throughputBG":0.004`), []byte(`"throughputBG":0.0041`), 1)
	if err := metricsInvariants(p, bad); err == nil {
		t.Fatal("BG flow imbalance accepted")
	}
	if _, err := textTail([]byte("tail decay sp(R)  0.5\nfg qlen quantiles    q50=3 q95=2 q99=5 \n")); err == nil {
		t.Fatal("q50 > q95 accepted")
	}
	pass := []byte("PASS: 8 cases, 40 metric comparisons (0 disagree), 100 invariant checks (0 violated)\n")
	if _, err := parseCheck(pass, true, 8); err != nil {
		t.Fatalf("consistent PASS rejected: %v", err)
	}
	if _, err := parseCheck(pass, false, 8); err == nil {
		t.Fatal("PASS with a failing exit status accepted")
	}
	fail := []byte("FAIL: 8 cases, 40 metric comparisons (1 disagree), 100 invariant checks (0 violated)\ndisagreement: case003 qlenFG\n")
	if v, err := parseCheck(fail, false, 8); err != nil || v.pass || v.disagreements != 1 {
		t.Fatalf("consistent FAIL parsed as %+v, %v", v, err)
	}
}
