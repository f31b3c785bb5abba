package request

import (
	"errors"
	"testing"

	"bgperf/internal/core"
)

func TestWorkloadByNameUnknown(t *testing.T) {
	_, err := WorkloadByName("nope")
	var ve *core.ValidationError
	if !errors.As(err, &ve) || ve.Field != "workload" || !errors.Is(err, core.ErrConfig) {
		t.Fatalf("WorkloadByName(nope) = %v, want a core.ErrConfig ValidationError on workload", err)
	}
}

// TestConfigDefaults pins the CLI-compatible defaulting of a minimal
// request: buffer 5, idle wait of one service time, per-job idling,
// exponential service.
func TestConfigDefaults(t *testing.T) {
	cfg, err := SolveRequest{Workload: "Email", BGProb: 0.3}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BGBuffer != 5 || cfg.BGProb != 0.3 || cfg.IdlePolicy != core.IdleWaitPerJob ||
		cfg.Service != nil || cfg.IdleWait != nil || cfg.ServiceRate == 0 || cfg.IdleRate != cfg.ServiceRate {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}
