package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the report-schema golden file")

// TestReportSchemaGolden pins the exact JSON wire format of the two report
// structs the repo documents and serves — obs.Report (the `-diag` file of
// both CLIs, documented in README) and obs.ServeStats (the serve section of
// the bgperfd /metrics endpoint). Any field rename, tag change, or casing
// drift (camelCase is the repo-wide convention) shows up as an explicit
// golden diff in review. Regenerate with:
//
//	go test ./internal/obs -run TestReportSchemaGolden -update
func TestReportSchemaGolden(t *testing.T) {
	report := Report{
		Solves: 2,
		Stages: map[string]StageReport{
			"build":    {Count: 2, Seconds: 0.001},
			"r-solve":  {Count: 2, Seconds: 0.002},
			"boundary": {Count: 2, Seconds: 0.003},
			"metrics":  {Count: 2, Seconds: 0.004},
		},
		RSolves:            2,
		RIterations:        14,
		LastRIterations:    7,
		LastResidual:       1e-15,
		LastSpectralRadius: 0.5,
		ConvergenceTrace:   []float64{0.25, 0.0625, 1e-15},
		Workspace: WorkspaceStats{
			MatrixHits: 10, MatrixMisses: 1,
			VectorHits: 20, VectorMisses: 2,
			LUHits: 30, LUMisses: 3,
		},
		SimRuns: 1,
		Sim: SimCounters{
			ArrivalsFG: 100, CompletedFG: 99, DelayedFG: 5,
			GeneratedBG: 30, AdmittedBG: 25, DroppedBG: 5,
			CompletedBG: 20, IdleExpirations: 15,
		},
		ReplicationsDone:  4,
		ReplicationsTotal: 8,
		Fits: []FitDiag{{
			TargetRate: 0.0133, TargetSCV: 100, TargetACF1: 0.4, TargetDecay: 0.999,
			Rate: 0.0133, SCV: 99.8, ACF1: 0.39, Decay: 0.998,
		}},
		MatKernels: "avx2",
	}
	serve := ServeStats{
		Requests: 10, CacheHits: 6, CacheMisses: 4, Coalesced: 2,
		Solves: 2, InFlight: 1, Rejected: 1,
		DiskHits: 3, Forwarded: 2, ForwardFailures: 1,
		Shed: 1, Queued: 1, Streams: 1,
		LatencySamples: 2, LatencyP50Ms: 0.5, LatencyP99Ms: 1.5,
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Diag  Report     `json:"diag"`
		Serve ServeStats `json:"serve"`
	}{report, serve}); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON schema drifted from %s\n-- got --\n%s\n-- want --\n%s",
			golden, buf.Bytes(), want)
	}
}
