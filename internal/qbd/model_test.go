package qbd_test

import (
	"math"
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/core"
	"bgperf/internal/mat"
	"bgperf/internal/phtype"
	"bgperf/internal/qbd"
	"bgperf/internal/workload"
)

// modelChain builds the QBD of the paper's FG/BG model: a catalog arrival
// process rescaled to utilisation util, BG probability p, buffer x, service
// SCV scv at the 6 ms mean, and an exponential idle wait of idleMult
// service times.
func modelChain(t *testing.T, catalog func() (*arrival.MAP, error), util, p float64, x int, scv, idleMult float64) (qbd.Boundary, *qbd.Process) {
	t.Helper()
	m, err := catalog()
	if err != nil {
		t.Fatal(err)
	}
	if m, err = workload.AtUtilization(m, util); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Arrival: m, BGProb: p, BGBuffer: x, IdleRate: 1 / (idleMult * workload.MeanServiceTimeMs)}
	if scv == 1 {
		cfg.ServiceRate = workload.ServiceRatePerMs
	} else if cfg.Service, err = phtype.FitTwoMoment(workload.MeanServiceTimeMs, scv); err != nil {
		t.Fatal(err)
	}
	model, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, proc, err := model.QBDBlocks()
	if err != nil {
		t.Fatal(err)
	}
	return b, proc
}

// TestCompactStepModelChains pins the column-compacted cyclic reduction
// against the full-width reference on chains built by the model, where the
// compaction actually skips work: A2 of the Soft.Dev X = 15, SCV 2 chain
// (order 124) reaches only about half the phases, and on the E-mail X = 14
// chain the up and down iterates underflow to a few nonzero columns over
// its 24 iterations.
func TestCompactStepModelChains(t *testing.T) {
	t.Run("softdev-x15-scv2", func(t *testing.T) {
		_, p := modelChain(t, workload.SoftwareDevelopment, 0.45, 0.3, 15, 2, 1.5)
		if p.Order() != 124 {
			t.Fatalf("order %d, want 124", p.Order())
		}
		if nz := len(p.A2().NonzeroColsInto(make([]int, p.Order()))); nz >= p.Order()*3/4 {
			t.Fatalf("A2 has %d nonzero columns of %d; the chain no longer exercises compaction", nz, p.Order())
		}
		qbd.CompareCompactSteps(t, p)
	})
	t.Run("email-x14", func(t *testing.T) {
		_, p := modelChain(t, workload.Email, 0.3, 0.3, 14, 1, 1)
		iters, downCols, upCols := qbd.CompareCompactSteps(t, p)
		if iters != 24 {
			t.Fatalf("%d iterations, want the 24 of the underflow path", iters)
		}
		if downCols+upCols >= p.Order() {
			t.Fatalf("final iterates keep %d+%d nonzero columns of %d; no underflow to exercise",
				downCols, upCols, p.Order())
		}
	})
}

// denseTailMoments is the explicit-inverse formula the solve-based tail
// moments replaced, kept as their reference: (I−R)⁻¹ formed in full and the
// moment vectors assembled with four m×m products.
func denseTailMoments(t *testing.T, s *qbd.Solution) (sum, w, w2 []float64) {
	t.Helper()
	m := s.R.Rows()
	idMinusR := mat.Identity(m).SubMat(s.R)
	inv, err := mat.Inverse(idMinusR)
	if err != nil {
		t.Fatal(err)
	}
	sum = inv.VecMul(s.RepPi)
	inv2 := inv.Mul(inv)
	w = s.R.VecMul(inv2.VecMul(s.RepPi))
	ipr := mat.Identity(m).AddMat(s.R)
	w2 = s.R.Mul(ipr).Mul(inv2.Mul(inv)).VecMul(s.RepPi)
	return sum, w, w2
}

// maxRelDiff is max_i |a_i − b_i| / max_i |b_i|: the error of a vector
// relative to its scale, so phases with negligible mass do not dominate.
func maxRelDiff(a, b []float64) float64 {
	var diff, scale float64
	for i := range b {
		diff = math.Max(diff, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	return diff / scale
}

// TestTailMomentsMatchDenseReference pins the solve-based tail moments
// (one LU of I−R, vector left-solves, vector·R products) against the
// explicit-inverse reference: to 1e-12 relative away from saturation and to
// 1e-9 at sp(R) > 0.99999, where (I−R) is nearly singular. TotalMass stays
// within 1e-12 of one either way.
func TestTailMomentsMatchDenseReference(t *testing.T) {
	cases := []struct {
		name       string
		catalog    func() (*arrival.MAP, error)
		util, p    float64
		x          int
		scv        float64
		spLo, spHi float64 // sp(R) bracket the case must fall in
		tol        float64
	}{
		{"poisson-light", workload.EmailPoisson, 0.2, 0.3, 5, 1, 0, 0.99, 1e-12},
		{"poisson-scv2", workload.EmailPoisson, 0.5, 0.3, 15, 2, 0, 0.99, 1e-12},
		{"poisson-scv05", workload.EmailPoisson, 0.7, 0.5, 8, 0.5, 0, 0.99, 1e-12},
		{"useraccounts", workload.UserAccounts, 0.05, 0.5, 8, 0.5, 0, 0.99, 1e-12},
		{"softdev", workload.SoftwareDevelopment, 0.05, 0.5, 8, 0.5, 0, 0.99, 1e-12},
		{"email-saturated", workload.Email, 0.7, 0.3, 5, 1, 0.99999, 1, 1e-9},
		{"email-x14-saturated", workload.Email, 0.65, 0.3, 14, 2, 0.99999, 1, 1e-9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, p := modelChain(t, c.catalog, c.util, c.p, c.x, c.scv, 1)
			sol, err := qbd.Solve(b, p)
			if err != nil {
				t.Fatal(err)
			}
			if sp := mat.SpectralRadius(sol.R, 1e-12, 100000); sp < c.spLo || sp >= c.spHi {
				t.Fatalf("sp(R) = %.9f outside [%g, %g)", sp, c.spLo, c.spHi)
			}
			sum, w, w2 := denseTailMoments(t, sol)
			for _, v := range []struct {
				name      string
				got, want []float64
			}{
				{"TailSum", sol.TailSum(), sum},
				{"TailWeightedSum", sol.TailWeightedSum(), w},
				{"TailSquareWeightedSum", sol.TailSquareWeightedSum(), w2},
			} {
				if d := maxRelDiff(v.got, v.want); d > c.tol {
					t.Errorf("%s: relative difference %.3g from the dense reference, want <= %g", v.name, d, c.tol)
				}
			}
			if d := math.Abs(sol.TotalMass() - 1); d > 1e-12 {
				t.Errorf("TotalMass off one by %.3g", d)
			}
		})
	}
}
