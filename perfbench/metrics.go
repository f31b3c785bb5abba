package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports each of them; README.md gives the per-workload definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a workload
// never calls reads 0 there.
var perLayer = []metricDef{
	{"bgperf.exec_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.metrics_ms", "ms"},
	{"core.tail_ms", "ms"},
	{"core.tail_timeouts", "count"},
	{"qbd.rsolve_ms", "ms"},
	{"qbd.boundary_ms", "ms"},
	{"qbd.r_iterations", "count"},
	{"mat.mul_count", "count"},
	{"mat.ws_hit_ratio", "ratio"},
	{"multiclass.solve_ms", "ms"},
	{"plan.optimize_cold_ms", "ms"},
	{"plan.optimize_warm_ms", "ms"},
	{"plan.solves", "count"},
	{"serve.mem_hit_p50_ms", "ms"},
	{"serve.mem_hit_p99_ms", "ms"},
	{"serve.disk_hit_p50_ms", "ms"},
	{"serve.solve_p50_ms", "ms"},
	{"serve.solve_p99_ms", "ms"},
	{"serve.peer_p50_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.first_line_ms", "ms"},
	{"serve.cold_sweep_ms", "ms"},
	{"serve.warm_sweep_ms", "ms"},
	{"serve.metrics_scrape_ms", "ms"},
	{"cas.restart_scan_ms", "ms"},
	{"cas.hits", "count"},
	{"cas.writes", "count"},
	{"cas.entries", "count"},
	{"cas.bytes", "B"},
	{"cluster.forwarded", "count"},
	{"cluster.forward_failures", "count"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.runs", "count"},
	{"check.disagreements", "count"},
	{"check.violations", "count"},
	{"check.plan_oracle_ms", "ms"},
	{"loadgen.rung1.late_p99_ms", "ms"},
	{"loadgen.rung1.achieved_rps", "req/s"},
	{"loadgen.rung2.late_p99_ms", "ms"},
	{"loadgen.rung2.achieved_rps", "req/s"},
	{"loadgen.rung3.late_p99_ms", "ms"},
	{"loadgen.rung3.achieved_rps", "req/s"},
	{"loadgen.rung4.late_p99_ms", "ms"},
	{"loadgen.rung4.achieved_rps", "req/s"},
	{"trace.overhead_frac", "ratio"},
	{"fail_frac", "ratio"},
}

// complete checks a run's metrics against the list for its mode. In a
// traced run a layer the workload never reached is reported as 0; an
// untraced run must have measured every end-to-end metric.
func complete(got map[string]metric, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	known := map[string]bool{}
	for _, d := range want {
		known[d.name] = true
		m, ok := got[d.name]
		switch {
		case !ok && traced:
			got[d.name] = metric{0, d.unit}
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	var extra []string
	for name := range got {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics outside the list: %v", extra)
	}
	return nil
}
