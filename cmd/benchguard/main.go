// Command benchguard compares a `go test -bench` output against the budgets
// recorded in a BENCH_*.json snapshot and fails when any guarded benchmark
// regresses beyond the allowed slack.
//
//	go test -run=NONE -bench='BenchmarkScalability|BenchmarkValidation' \
//	    -benchmem -benchtime=3x -count=5 . > bench_output.txt
//	go run ./cmd/benchguard -bench bench_output.txt \
//	    -budget BENCH_PR6.json -budget BENCH_PR7.json
//
// The budget for each benchmark is its "after.ns_op" value in the snapshot;
// a run passes while measured-min ns/op <= budget × slack (default 1.25, i.e.
// a >25% regression fails). With -count > 1 the guard takes the minimum over
// repetitions, which is the standard way to strip scheduler and frequency
// noise from wall-clock benchmarks on shared machines. Benchmarks present in
// only one of the two inputs are reported but never fail the run, so the
// snapshot can guard a subset of the suite.
//
// -budget repeats: later snapshots override earlier ones per benchmark name,
// so stacked PR snapshots compose (each PR's file re-budgets the benchmarks
// it touched and leaves the rest to older snapshots). With no -budget flags
// the guard loads every BENCH_PR*.json in the working directory, oldest
// first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// snapshot mirrors the BENCH_*.json layout (only the fields the guard reads).
type snapshot struct {
	Benchmarks []struct {
		Name  string `json:"name"`
		After struct {
			NsOp float64 `json:"ns_op"`
		} `json:"after"`
	} `json:"benchmarks"`
}

// parseBench extracts min ns/op per benchmark name from `go test -bench`
// output, stripping the -GOMAXPROCS suffix so names match the snapshot.
func parseBench(r io.Reader) (map[string]float64, error) {
	mins := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines: Name  N  ns/op-value "ns/op" [more pairs...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchguard: bad ns/op on line %q: %w", sc.Text(), err)
		}
		if cur, ok := mins[name]; !ok || ns < cur {
			mins[name] = ns
		}
	}
	return mins, sc.Err()
}

// budgetList collects repeated -budget flags.
type budgetList []string

func (b *budgetList) String() string     { return strings.Join(*b, ",") }
func (b *budgetList) Set(s string) error { *b = append(*b, s); return nil }

func main() {
	benchPath := flag.String("bench", "", "go test -bench output file (default stdin)")
	var budgetPaths budgetList
	flag.Var(&budgetPaths, "budget", "benchmark snapshot with after.ns_op budgets (repeatable; later files override; default all BENCH_PR*.json)")
	slack := flag.Float64("slack", 1.25, "allowed ratio of measured to budget ns/op before failing")
	flag.Parse()

	var in io.Reader = os.Stdin
	if *benchPath != "" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(budgetPaths) == 0 {
		matches, err := filepath.Glob("BENCH_PR*.json")
		if err != nil || len(matches) == 0 {
			fatal(fmt.Errorf("benchguard: no -budget flags and no BENCH_PR*.json in the working directory"))
		}
		sortSnapshots(matches)
		budgetPaths = matches
	}

	budgets := make(map[string]float64)
	for _, path := range budgetPaths {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		var snap snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			fatal(fmt.Errorf("benchguard: parsing %s: %w", path, err))
		}
		for _, b := range snap.Benchmarks {
			if b.After.NsOp > 0 {
				budgets[b.Name] = b.After.NsOp
			}
		}
	}
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	for _, name := range names {
		got, ok := measured[name]
		if !ok {
			fmt.Printf("SKIP %s: not in bench output\n", name)
			continue
		}
		budget := budgets[name]
		ratio := got / budget
		status := "ok  "
		if ratio > *slack {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %s: %.0f ns/op vs budget %.0f (ratio %.2f, limit %.2f)\n",
			status, name, got, budget, ratio, *slack)
	}
	for name := range measured {
		if _, ok := budgets[name]; !ok {
			fmt.Printf("info %s: measured %.0f ns/op (no budget)\n", name, measured[name])
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("benchguard: %d benchmark(s) regressed beyond %.0f%% of budget", failed, (*slack-1)*100))
	}
	fmt.Println("benchguard: all guarded benchmarks within budget")
}

// sortSnapshots orders BENCH_PR<n>.json paths oldest-first by PR number,
// so newer files override as documented. A lexical sort would put
// BENCH_PR10.json before BENCH_PR2.json and let the older budgets win.
// Names without a number sort first, lexically.
func sortSnapshots(paths []string) {
	num := func(p string) int {
		s := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_PR"), ".json")
		n, err := strconv.Atoi(s)
		if err != nil {
			return -1
		}
		return n
	}
	sort.SliceStable(paths, func(i, j int) bool {
		ni, nj := num(paths[i]), num(paths[j])
		if ni != nj {
			return ni < nj
		}
		return paths[i] < paths[j]
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
