package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bgperf/internal/cas"
	"bgperf/internal/obs"
)

// The open-loop ladder of offered rates of a traced run. rungs[nominalRung]
// is the rate the tier split of the ledger is taken at. The top rung offers
// several times what two nodes on a 2-vCPU host can serve (850–1900 req/s on
// this mix, as the host's speed varies), so the generator always has
// loadConc requests in flight and the rate it achieves there,
// loadgen.rung4.achieved_rps, is the program's saturation throughput.
var rungs = []float64{50, 150, 300, 4000}

// segments interleave the nominal rung with the others, so the samples of
// the nominal rung span the run instead of one stretch of it, and a slow
// spell of the host meets few of them; each segment is a share of the budget
// and starts with an empty queue. The saturated top rung runs last, at the
// same state of the stores in every run, and the disk writes it leaves
// behind fall into no other segment.
var segments = []struct {
	rung  int
	share float64
}{
	{1, 0.23}, {0, 0.03}, {1, 0.23}, {2, 0.04}, {1, 0.23}, {3, 0.025},
}

const (
	nominalRung = 1
	// loadConc is the generator's connection bound: one process, at most two
	// requests in flight, sized for a 2-vCPU host running both nodes.
	loadConc = 2
	// sweepsPerGap is how many closed-loop sweeps run before each segment
	// and after the last; warmRepeats is how many times each is repeated.
	sweepsPerGap, warmRepeats = 2, 3
	// restarts is how many times set-up restarts the warm nodes, after
	// warmupRestarts untimed ones (the first restarts after the prefill are
	// slower); setup_s is the median.
	warmupRestarts, restarts = 3, 12
	// daemonRoundCost is the budget share of one closed-loop round of an
	// untraced run; a round takes 0.35–0.6 s on a 2-vCPU VM.
	daemonRoundCost = 400 * time.Millisecond
	// paritySample is how many answered points are re-solved by
	// `bgperf solve -json` and compared exactly.
	paritySample = 8
)

// node is one bgperfd process.
type node struct {
	addr string
	dir  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// cluster is the two-node ring under test.
type cluster struct {
	e      *env
	nodes  [2]*node
	client *http.Client
	log    *os.File
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func newCluster(e *env) (*cluster, error) {
	log, err := os.Create(filepath.Join(e.work, "bgperfd.log"))
	if err != nil {
		return nil, err
	}
	c := &cluster{e: e, log: log, client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * loadConc},
	}}
	for i := range c.nodes {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		c.nodes[i] = &node{addr: addr}
	}
	return c, nil
}

// start spawns both nodes on the given cache directories and waits until
// both answer /healthz and list both peers up; it returns that time.
func (c *cluster) start(dirs [2]string) (time.Duration, error) {
	peers := c.nodes[0].addr + "," + c.nodes[1].addr
	t0 := time.Now()
	for i, n := range c.nodes {
		n.dir = dirs[i]
		n.cmd = exec.Command(filepath.Join(c.e.bin, "bgperfd"), "-addr", n.addr, "-self", n.addr,
			"-peers", peers, "-workers", "1", "-cache-dir", n.dir, "-max-inflight", "4")
		n.cmd.Stdout, n.cmd.Stderr = c.log, c.log
		// One Go processor per node: two nodes and the generator share two
		// cores, and a node's idle processors would spin on them.
		n.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
		if err := n.cmd.Start(); err != nil {
			return 0, err
		}
		n.done = make(chan struct{})
		go func(n *node) { n.cmd.Wait(); close(n.done) }(n)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(500 * time.Microsecond) {
		if c.ready() {
			return time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bgperfd nodes not ready after 30 s (log in %s)", c.log.Name())
		}
		for _, n := range c.nodes {
			select {
			case <-n.done:
				return 0, fmt.Errorf("bgperfd %s exited during start-up", n.addr)
			default:
			}
		}
	}
}

func (c *cluster) ready() bool {
	for i := range c.nodes {
		if st, _, err := c.do(i, http.MethodGet, "/healthz", nil, false); err != nil || st != http.StatusOK {
			return false
		}
		st, body, err := c.do(i, http.MethodGet, "/clusterz", nil, false)
		if err != nil || st != http.StatusOK {
			return false
		}
		var cz struct {
			Peers []struct {
				Up bool `json:"up"`
			} `json:"peers"`
		}
		if json.Unmarshal(body, &cz) != nil || len(cz.Peers) != 2 || !cz.Peers[0].Up || !cz.Peers[1].Up {
			return false
		}
	}
	return true
}

// stop drains both nodes with SIGTERM and waits for them to exit.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		if n.cmd != nil && n.cmd.Process != nil {
			n.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, n := range c.nodes {
		if n.cmd == nil || n.cmd.Process == nil {
			continue
		}
		select {
		case <-n.done:
		case <-time.After(20 * time.Second):
			n.cmd.Process.Kill()
			<-n.done
		}
		c.e.notePeak(n.cmd.ProcessState)
		n.cmd = nil
	}
}

func (c *cluster) do(i int, method, path string, body []byte, ndjson bool) (int, []byte, error) {
	req, err := http.NewRequest(method, "http://"+c.nodes[i].addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// pointResult is one answered point of /v1/solve or /v1/sweep.
type pointResult struct {
	Key        string          `json:"key"`
	Cached     bool            `json:"cached"`
	DiskCached bool            `json:"diskCached"`
	Coalesced  bool            `json:"coalesced"`
	Peer       string          `json:"peer"`
	Metrics    json.RawMessage `json:"metrics"`
	Error      json.RawMessage `json:"error"`
}

// tier names the serving tier a point's stamps show.
func (r pointResult) tier() string {
	switch {
	case r.Peer != "":
		return "peer"
	case r.DiskCached:
		return "disk"
	case r.Cached:
		return "mem"
	default:
		return "solve"
	}
}

// checkPoint verifies one answered point; a wrong answer is recorded.
func (c *cluster) checkPoint(what string, p point, r pointResult) bool {
	var err error
	if r.Error != nil || r.Metrics == nil {
		err = fmt.Errorf("error %s", r.Error)
	} else {
		err = metricsInvariants(p, r.Metrics)
	}
	if err != nil {
		c.e.tally.wrongAnswer("%s %v: %v", what, p.args(), err)
		return false
	}
	return true
}

// sweep posts a batch sweep and checks every result.
func (c *cluster) sweep(i int, pts []point) ([]pointResult, bool) {
	body, _ := json.Marshal(map[string][]point{"points": pts})
	st, b, err := c.do(i, http.MethodPost, "/v1/sweep", body, false)
	var resp struct {
		Results []pointResult `json:"results"`
	}
	if err != nil || st != http.StatusOK || json.Unmarshal(b, &resp) != nil || len(resp.Results) != len(pts) {
		note("sweep failed: status %d, %v", st, err)
		return nil, false
	}
	ok := true
	for k, r := range resp.Results {
		ok = c.checkPoint("sweep", pts[k], r) && ok
	}
	return resp.Results, ok
}

// streamSweep posts an NDJSON sweep and returns the lines with the time to
// the first line and to the last.
func (c *cluster) streamSweep(i int, pts []point) (lines []pointResult, first, total time.Duration, err error) {
	body, _ := json.Marshal(map[string][]point{"points": pts})
	req, err := http.NewRequest(http.MethodPost, "http://"+c.nodes[i].addr+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(lines) == 0 {
			first = time.Since(t0)
		}
		var r pointResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, 0, err
		}
		lines = append(lines, r)
	}
	total = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	return lines, first, total, sc.Err()
}

// snapshot is the part of GET /metrics the ledger reads, summed over nodes.
type snapshot struct {
	Serve obs.ServeStats `json:"serve"`
	Disk  *cas.Stats     `json:"disk"`
	Diag  obs.Report     `json:"diag"`
}

func (c *cluster) snapshots() ([2]snapshot, error) {
	var s [2]snapshot
	for i := range c.nodes {
		st, b, err := c.do(i, http.MethodGet, "/metrics", nil, false)
		if err != nil || st != http.StatusOK {
			return s, fmt.Errorf("/metrics: status %d, %v", st, err)
		}
		if err := json.Unmarshal(b, &s[i]); err != nil {
			return s, err
		}
	}
	return s, nil
}

// rungResult is one open-loop rung.
type rungResult struct {
	lat, late []float64 // ms, every request
	failed    int
	requests  int
	busy      time.Duration        // summed segment walls, first due to last completion
	lastLate  time.Duration        // the worst over segments
	tierLat   map[string][]float64 // /v1/solve latency by tier stamp, ms
	scrapeLat []float64
	planCold  []float64
	planWarm  []float64
	planSolve []float64
	answered  []point // /v1/solve points answered 200, for the parity sample
}

// achieved is the rung's completed requests per second.
func (r rungResult) achieved() float64 { return float64(r.requests) / r.busy.Seconds() }

// millis converts a duration to milliseconds.
func millis(d time.Duration) float64 { return d.Seconds() * 1000 }

// rung runs one open-loop rung and checks every answer.
func (c *cluster) rung(segment int, rps float64, dur time.Duration, pool []point, res *rungResult) {
	reqs := schedule(c.e.seed, segment, rps, dur, pool)
	paths := make([]string, len(reqs))
	bodies := make([][]byte, len(reqs))
	for i, q := range reqs {
		paths[i], bodies[i] = q.wire()
	}
	outs := openLoop(len(reqs), loadConc,
		func(i int) time.Duration { return reqs[i].Due },
		func(i int) (int, []byte, error) { return c.send(reqs[i].Node, paths[i], bodies[i]) })
	var lastEnd time.Duration
	for i, o := range outs {
		q := reqs[i]
		lat := millis(o.latency())
		res.lat = append(res.lat, lat)
		res.late = append(res.late, millis(o.late()))
		lastEnd = max(lastEnd, o.end)
		ok := o.ok() && c.checkAnswer(q, o.body, lat, res)
		if !o.ok() {
			note("%s request failed: status %d, %v", q.Kind, o.status, o.err)
		}
		c.e.tally.op(ok)
		if !ok {
			res.failed++
		}
	}
	if n := len(outs); n > 0 {
		res.lastLate = max(res.lastLate, outs[n-1].late())
		res.requests += n
		res.busy += lastEnd
	}
}

// wire returns the path and JSON body of a request; a scrape has no body.
func (q request) wire() (string, []byte) {
	var b []byte
	switch q.Kind {
	case reqRead, reqWrite:
		b, _ = json.Marshal(q.Points[0])
		return "/v1/solve", b
	case reqSweep:
		b, _ = json.Marshal(map[string][]point{"points": q.Points})
		return "/v1/sweep", b
	case reqPlan, reqPlanWarm:
		b, _ = json.Marshal(q.Plan)
		return "/v1/optimize", b
	}
	return "/metrics", nil
}

// send issues one request of the mix: a GET when it has no body.
func (c *cluster) send(node int, path string, body []byte) (int, []byte, error) {
	if body == nil {
		return c.do(node, http.MethodGet, path, nil, false)
	}
	return c.do(node, http.MethodPost, path, body, false)
}

// rounds runs the closed loop of an untraced run: a fixed number of rounds,
// each sending every unit of roundUnits once and streaming a never-seen
// 90-point grid cold and then requesting it warm, one request at a time in a
// new seeded order each round. It returns each unit's fastest latency over
// the rounds in seconds (the grid's cold stream and warm batch last) and the
// single points answered, for the parity sample.
func (c *cluster) rounds(pool []point) ([]float64, []point, error) {
	n := c.e.units(daemonRoundCost)
	c.e.rounds = n
	var best []float64
	var sw sweepStats
	var res rungResult
	order := newRand(c.e.seed, streamOrder)
	for r := 0; r < n; r++ {
		units := roundUnits(c.e.seed, r, pool)
		if best == nil {
			best = make([]float64, len(units)+2)
			for i := range best {
				best[i] = math.Inf(1)
			}
		}
		for k, i := range order.Perm(len(units) + 1) {
			if k%26 == 0 {
				if err := c.e.sampleCalibration(); err != nil {
					return nil, nil, err
				}
			}
			if i == len(units) {
				if k := len(sw.cold); c.sweepPair(r, &sw) {
					best[i] = math.Min(best[i], sw.cold[k]/1000)
					best[i+1] = math.Min(best[i+1], sw.warm[k]/1000)
				}
				continue
			}
			q := units[i]
			path, body := q.wire()
			t0 := time.Now()
			st, b, err := c.send(q.Node, path, body)
			lat := time.Since(t0)
			ok := err == nil && st >= 200 && st < 300 && c.checkAnswer(q, b, millis(lat), &res)
			if err != nil || st < 200 || st >= 300 {
				note("%s request failed: status %d, %v", q.Kind, st, err)
			}
			c.e.tally.op(ok)
			best[i] = math.Min(best[i], lat.Seconds())
		}
	}
	note("%d closed-loop rounds of %d units", n, len(best))
	return best, res.answered, nil
}

// checkAnswer verifies one 2xx open-loop answer and files its latency.
func (c *cluster) checkAnswer(q request, body []byte, lat float64, res *rungResult) bool {
	switch q.Kind {
	case reqScrape:
		var s snapshot
		if err := json.Unmarshal(body, &s); err != nil {
			c.e.tally.wrongAnswer("/metrics: %v", err)
			return false
		}
		res.scrapeLat = append(res.scrapeLat, lat)
	case reqRead, reqWrite:
		var r pointResult
		if err := json.Unmarshal(body, &r); err != nil {
			c.e.tally.wrongAnswer("%s answer does not parse: %v", q.Kind, err)
			return false
		}
		if !c.checkPoint(q.Kind, q.Points[0], r) {
			return false
		}
		if res.tierLat == nil {
			res.tierLat = map[string][]float64{}
		}
		res.tierLat[r.tier()] = append(res.tierLat[r.tier()], lat)
		res.answered = append(res.answered, q.Points[0])
	case reqSweep:
		var s struct {
			Results []pointResult `json:"results"`
		}
		if err := json.Unmarshal(body, &s); err != nil || len(s.Results) != len(q.Points) {
			c.e.tally.wrongAnswer("sweep answer does not parse: %v", err)
			return false
		}
		for k, r := range s.Results {
			if !c.checkPoint("sweep", q.Points[k], r) {
				return false
			}
		}
	case reqPlan, reqPlanWarm:
		var r struct {
			Cached bool `json:"cached"`
			Plan   *struct {
				Solves  int             `json:"solves"`
				Metrics json.RawMessage `json:"metrics"`
			} `json:"plan"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Plan == nil {
			c.e.tally.wrongAnswer("optimize answer does not parse: %v", err)
			return false
		}
		var wp struct {
			WaitPFG float64 `json:"waitPFG"`
		}
		err := metricsInvariants(q.Plan.point, r.Plan.Metrics)
		if err == nil && (json.Unmarshal(r.Plan.Metrics, &wp) != nil || wp.WaitPFG > q.Plan.SLO.WaitPFG+invariantTol) {
			err = fmt.Errorf("frontier waitPFG %g breaks the SLO %g", wp.WaitPFG, q.Plan.SLO.WaitPFG)
		}
		if err != nil {
			c.e.tally.wrongAnswer("optimize %v: %v", q.Plan.args(), err)
			return false
		}
		if r.Cached {
			res.planWarm = append(res.planWarm, lat)
		} else {
			res.planCold = append(res.planCold, lat)
			res.planSolve = append(res.planSolve, float64(r.Plan.Solves))
		}
	}
	return true
}

// parity re-solves a seeded sample of answered points with
// `bgperf solve -json` and compares the metrics exactly.
func (c *cluster) parity(answered []point) {
	r := newRand(c.e.seed, streamParity)
	for k := 0; k < paritySample && len(answered) > 0; k++ {
		p := answered[r.Intn(len(answered))]
		body, _ := json.Marshal(p)
		st, b, err := c.do(k%2, http.MethodPost, "/v1/solve", body, false)
		var pr pointResult
		if err != nil || st != http.StatusOK || json.Unmarshal(b, &pr) != nil {
			c.e.tally.op(false)
			continue
		}
		out := c.e.bgperf(cliDeadline, append([]string{"solve", "-json"}, p.args()...)...)
		ok := out.err == nil
		if ok {
			var a, b bytes.Buffer
			raw, _ := firstJSON(out.out)
			if json.Compact(&a, pr.Metrics) != nil || json.Compact(&b, raw) != nil || a.String() != b.String() {
				c.e.tally.wrongAnswer("daemon answer for %v differs from bgperf solve -json", p.args())
				ok = false
			}
		}
		c.e.tally.op(ok)
	}
}

// runDaemonMix is the daemon-mix workload: two bgperfd nodes in a static
// ring, each with its own disk cache and the admission gate on. serve, cas,
// cluster, plan and HTTP/JSON do most of its work.
func runDaemonMix(e *env) error {
	// The generator needs little CPU beyond its two senders; one P keeps
	// its idle threads from spinning on the cores the two nodes share.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := newCluster(e)
	if err != nil {
		return err
	}
	defer c.log.Close()
	defer c.stop()
	pool := daemonPool(e.seed)
	dirs := [2]string{filepath.Join(e.work, "cas0"), filepath.Join(e.work, "cas1")}

	// Set-up: with tracing, first time restarts on empty stores; then
	// prefill the pool and a backlog of older sweeps, and restart the warm
	// nodes: memory is cold, disk is warm.
	var empty, warm []float64
	if e.trace {
		for i := 0; i < restarts; i++ {
			d, err := c.start([2]string{filepath.Join(e.work, "empty", strconv.Itoa(i), "0"), filepath.Join(e.work, "empty", strconv.Itoa(i), "1")})
			if err != nil {
				return err
			}
			empty = append(empty, d.Seconds())
			c.stop()
		}
	}
	if _, err := c.start(dirs); err != nil {
		return err
	}
	prefill := append([]point(nil), pool...)
	for g := 0; g < 4; g++ {
		prefill = append(prefill, softdevSweep(e.seed, streamBacklog, g)...)
	}
	for k := 0; k < len(prefill); k += 64 {
		_, ok := c.sweep(k/64%2, prefill[k:min(k+64, len(prefill))])
		e.tally.op(ok)
	}
	for i := 0; i < warmupRestarts+restarts; i++ {
		c.stop()
		d, err := c.start(dirs)
		if err != nil {
			return err
		}
		if i >= warmupRestarts {
			warm = append(warm, d.Seconds())
		}
	}
	note("warm restarts: %.4g s", warm)
	if !e.trace {
		e.calibDir = filepath.Join(e.work, "calibration")
		if err := os.MkdirAll(e.calibDir, 0o755); err != nil {
			return err
		}
		best, answered, err := c.rounds(pool)
		if err != nil {
			return err
		}
		c.parity(answered)
		c.stop()
		e.set("setup_s", median(warm), "s")
		e.setFixedWork(best)
		return nil
	}
	before, err := c.snapshots()
	if err != nil {
		return err
	}

	// The traced run: a never-seen 90-point grid streamed cold and
	// requested warm before each open-loop segment and after the last.
	var sw sweepStats
	results := make([]rungResult, len(rungs))
	grid := 0
	sweeps := func() {
		for k := 0; k < sweepsPerGap; k++ {
			c.sweepPair(grid, &sw)
			grid++
		}
	}
	for i, seg := range segments {
		sweeps()
		c.rung(i, rungs[seg.rung], time.Duration(seg.share*float64(e.budget)), pool, &results[seg.rung])
	}
	sweeps()
	nominal := results[nominalRung]
	c.parity(nominal.answered)

	// Traced: the ledger from /metrics and the tier stamps; then the overhead
	// of tracing, from alternating nominal segments run plain and while
	// /metrics is scraped every 100 ms.
	after, err := c.snapshots()
	if err != nil {
		return err
	}
	var plain, traced rungResult
	for k := 0; k < 4; k++ {
		seg := len(segments) + 1 + k
		dur := time.Duration(0.05 * float64(e.budget))
		if k%2 == 0 {
			c.rung(seg, rungs[nominalRung], dur, pool, &plain)
			continue
		}
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Millisecond):
					c.snapshots()
				}
			}
		}()
		c.rung(seg, rungs[nominalRung], dur, pool, &traced)
		close(stop)
		<-stopped
	}
	e.set("trace.overhead_frac", median(traced.lat)/median(plain.lat)-1, "ratio")
	daemonLedger(e, before, after, nominal)
	e.set("cas.restart_scan_ms", 1000*(median(warm)-median(empty)), "ms")
	e.set("serve.first_line_ms", median(sw.first), "ms")
	e.set("serve.cold_sweep_ms", median(sw.cold), "ms")
	e.set("serve.warm_sweep_ms", median(sw.warm), "ms")
	for i, r := range results {
		e.set(fmt.Sprintf("loadgen.rung%d.late_p99_ms", i+1), tail(r.late, 0.99), "ms")
		e.set(fmt.Sprintf("loadgen.rung%d.achieved_rps", i+1), r.achieved(), "req/s")
		note("rung %d (%g req/s offered): %d requests, achieved %.1f req/s, %d failed, p50 %.3g p90 %.3g p99 %.3g ms, worst end-of-segment lateness %.2f ms",
			i+1, rungs[i], r.requests, r.achieved(), r.failed, tail(r.lat, 0.5), tail(r.lat, 0.9), tail(r.lat, 0.99), millis(r.lastLate))
	}
	note("closed-loop 90-point Soft.Dev sweeps: cold %.1f ms, warm %.2f ms (medians of %d)", median(sw.cold), median(sw.warm), len(sw.cold))
	return nil
}

// sweepStats collects the closed-loop sweeps.
type sweepStats struct {
	cold, warm, first []float64 // ms; warm is the fastest repeat of each grid
}

// sweepPair streams the g-th never-seen 90-point Soft.Dev grid as NDJSON
// (cold), requests it again as a batch warmRepeats times (warm: the fastest
// repeat), and checks that line i of the stream equals result i of every
// batch.
func (c *cluster) sweepPair(g int, sw *sweepStats) bool {
	pts := softdevSweep(c.e.seed, streamSweeps, g)
	lines, first, total, err := c.streamSweep(g%2, pts)
	if err != nil || len(lines) != len(pts) {
		note("NDJSON sweep failed: %v", err)
		c.e.tally.op(false)
		return false
	}
	ok := true
	for k, r := range lines {
		ok = c.checkPoint("NDJSON sweep", pts[k], r) && ok
	}
	c.e.tally.op(ok)
	sw.cold = append(sw.cold, millis(total))
	sw.first = append(sw.first, millis(first))
	fastest := math.Inf(1)
	for w := 0; w < warmRepeats; w++ {
		t1 := time.Now()
		batch, bok := c.sweep(g%2, pts)
		hot := time.Since(t1)
		for k := range batch {
			var a, b bytes.Buffer
			if lines[k].Key != batch[k].Key || json.Compact(&a, lines[k].Metrics) != nil ||
				json.Compact(&b, batch[k].Metrics) != nil || a.String() != b.String() {
				c.e.tally.wrongAnswer("NDJSON line %d differs from batch result %d", k, k)
				bok = false
			}
		}
		c.e.tally.op(bok)
		fastest = math.Min(fastest, millis(hot))
	}
	sw.warm = append(sw.warm, fastest)
	return true
}

// tail is capped without a note.
func tail(xs []float64, q float64) float64 {
	v, _ := capped(xs, q)
	return v
}

// daemonLedger sets the per-layer daemon metrics from the /metrics
// snapshots around the sweep and open-loop phases and from the tier stamps
// of the nominal rung.
func daemonLedger(e *env, before, after [2]snapshot, nominal rungResult) {
	var hits, reqs, coalesced, shed, fwd, fwdFail int64
	var casHits, casWrites, casEntries, casBytes int64
	l := newLedger()
	for i := range after {
		a, b := after[i].Serve, before[i].Serve
		hits += a.CacheHits + a.DiskHits - b.CacheHits - b.DiskHits
		reqs += a.Requests - b.Requests
		coalesced += a.Coalesced - b.Coalesced
		shed += a.Shed - b.Shed
		fwd += a.Forwarded - b.Forwarded
		fwdFail += a.ForwardFailures - b.ForwardFailures
		if d := after[i].Disk; d != nil {
			casHits += d.Hits
			casWrites += d.Writes
			casEntries += int64(d.Entries)
			casBytes += d.Bytes
		}
		l.add(after[i].Diag)
	}
	l.report(e)
	note("daemon solver stage split: %s", l.split())
	e.set("serve.hit_ratio", float64(hits)/float64(max(reqs, 1)), "ratio")
	e.set("serve.coalesced", float64(coalesced), "count")
	e.set("serve.shed", float64(shed), "count")
	e.set("cluster.forwarded", float64(fwd), "count")
	e.set("cluster.forward_failures", float64(fwdFail), "count")
	e.set("cas.hits", float64(casHits), "count")
	e.set("cas.writes", float64(casWrites), "count")
	e.set("cas.entries", float64(casEntries), "count")
	e.set("cas.bytes", float64(casBytes), "B")
	for _, t := range []struct{ tier, name string }{
		{"mem", "serve.mem_hit"}, {"disk", "serve.disk_hit"}, {"solve", "serve.solve"}, {"peer", "serve.peer"},
	} {
		xs := nominal.tierLat[t.tier]
		e.set(t.name+"_p50_ms", tail(xs, 0.5), "ms")
		if t.tier == "mem" || t.tier == "solve" {
			e.set(t.name+"_p99_ms", tailPercentile(t.name+"_p99_ms", xs, 0.99), "ms")
		}
		note("%s: %d samples at the nominal rung", t.name, len(xs))
	}
	e.set("serve.metrics_scrape_ms", median(nominal.scrapeLat), "ms")
	e.set("plan.optimize_cold_ms", median(nominal.planCold), "ms")
	e.set("plan.optimize_warm_ms", median(nominal.planWarm), "ms")
	e.set("plan.solves", median(nominal.planSolve), "count")
	tiers := make([]string, 0, 4)
	for t, xs := range nominal.tierLat {
		tiers = append(tiers, fmt.Sprintf("%s=%d", t, len(xs)))
	}
	note("tier stamps at the nominal rung: %s; plans cold %d, warm %d", strings.Join(tiers, " "), len(nominal.planCold), len(nominal.planWarm))
}
