// Command perfbench is the repository benchmark. It drives the built bgperf
// and bgperfd binaries (and, for exact operation counts, the solver's Go API)
// through one of two seeded workloads, checks every answer it receives, and
// prints each metric by name and unit. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Run it through the launcher, which builds everything first:
//
//	bash perfbench/run.sh --workload cli-solve --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// ledger taken from -diag reports, /metrics snapshots, tier stamps and
// wall-clock timing of public calls. See README.md for the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries what every workload needs: where the binaries are, a working
// directory inside the checkout, the time budget and the answer ledger.
type env struct {
	bin     string // directory holding bgperf and bgperfd
	work    string // working directory, removed on exit
	seed    int64
	budget  time.Duration
	trace   bool
	tally   tally
	metrics map[string]metric
	peakKB  int64     // peak RSS over the program's processes
	calib   []float64 // walls of the calibration kernel, seconds
	rounds  int       // rounds of the fixed work, for reading calib
	// calibDir, when set, makes the calibration kernel also write entries
	// there and make loopback round trips (storeKernel).
	calibDir string
}

// tally counts operations and wrong answers.
type tally struct {
	attempted, failed, wrong int
	wrongMsgs                []string
}

func (t *tally) op(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// wrongAnswer records a failed answer check. The caller also counts the
// operation that returned it as failed.
func (t *tally) wrongAnswer(format string, args ...any) {
	t.wrong++
	if len(t.wrongMsgs) < 20 {
		t.wrongMsgs = append(t.wrongMsgs, fmt.Sprintf(format, args...))
	}
}

func (e *env) set(name string, v float64, unit string) { e.metrics[name] = metric{v, unit} }

// note prints a human-readable line that is not a metric.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// units is how many repetitions of a fixed work unit of the given nominal
// cost fill the budget. The count depends on --seconds only, so every run
// with the same budget does the same work and counts the same operations.
func (e *env) units(cost time.Duration) int { return max(1, int(e.budget/cost)) }

// workloads maps each workload name to the function that runs it: it takes
// the end-to-end metrics untraced or, with --trace 1, the per-layer ledger.
var workloads = map[string]func(*env) error{
	"cli-solve":  runCLISolve,
	"daemon-mix": runDaemonMix,
}

func main() {
	var (
		root     = flag.String("root", ".", "root of the bgperf checkout")
		workload = flag.String("workload", "", "cli-solve | daemon-mix")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		calib    = flag.Bool("calibrate", false, "run the calibration kernel once and exit")
		calibDir = flag.String("calibrate-dir", "", "with -calibrate, also run the store kernel in this directory")
	)
	flag.Parse()
	if *calib {
		if *calibDir != "" {
			if err := storeKernel(*calibDir); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
		}
		fmt.Println(calibrationKernel())
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (cli-solve | daemon-mix), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	bin := filepath.Join(*root, ".bench_build", "bin")
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{
		bin: bin, work: work, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, metrics: map[string]metric{},
	}
	err = run(e)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if e.trace {
		e.set("fail_frac", float64(e.tally.failed)/float64(max(e.tally.attempted, 1)), "ratio")
	} else {
		e.set("peak_rss_mb", float64(e.peakKB)/1024, "MiB")
		if err := e.atReferenceSpeed(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := complete(e.metrics, e.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, w := range e.tally.wrongMsgs {
		fmt.Println("# WRONG ANSWER:", w)
	}
	names := make([]string, 0, len(e.metrics))
	for n := range e.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, e.metrics[n].Value, e.metrics[n].Unit)
	}
	res := result{
		Correct: e.tally.wrong == 0, Attempted: e.tally.attempted,
		Failed: e.tally.failed, Metrics: e.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
