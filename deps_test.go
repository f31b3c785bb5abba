package bgperf

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSolvePathLinksNoTransport keeps the transport stack out of the
// library and the batch CLI: net/http, crypto/tls and expvar add start-up
// time and binary size to every bgperf invocation, and nothing on the solve
// path needs them. Only the daemon (internal/serve, cmd/bgperfd)
// links them; model requests go through the transport-free
// internal/request, and the obs counters are plain atomics that serve
// publishes as expvars.
func TestSolvePathLinksNoTransport(t *testing.T) {
	forbidden := map[string]bool{"net/http": true, "crypto/tls": true, "expvar": true}
	for _, pkg := range []string{"bgperf", "bgperf/cmd/bgperf"} {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			if forbidden[dep] {
				t.Errorf("%s links %s", pkg, dep)
			}
		}
	}
}
