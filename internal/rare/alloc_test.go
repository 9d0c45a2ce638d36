//go:build !race

package rare

import (
	"context"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/sim"
)

// TestBlockAllocationPins pins the per-call allocations of an arena run
// under each estimator on the S1 submarine plan, as
// sim.TestTrialLoopAllocationPins does for plain runs: at most 3, the
// count of a plain run, and the same count at 64 and 6400 trials, so no
// block and no trial allocates — the QMC estimators included, whose point
// streams reach the sampler through an interface.
// Race-detector builds instrument allocations differently and skip it.
func TestBlockAllocationPins(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := failure.Compile(w.Submarine, failure.S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := sim.NewArena()
	for _, est := range []*Estimator{NewIS(0), NewISQMC(0), NewQMC()} {
		var counts []float64
		for _, trials := range []int{64, 6400} {
			run := func() {
				if _, err := a.RunPlan(ctx, plan, sim.Config{Trials: trials, Seed: 1, Workers: 1, Estimator: est}); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the arena's buffers and the estimator's tilt
			counts = append(counts, testing.AllocsPerRun(5, run))
		}
		if counts[0] > 3 || counts[1] != counts[0] {
			t.Errorf("%s: allocations per run at 64 and 6400 trials = %v, want the same count, at most 3",
				est.EstimatorName(), counts)
		}
	}
}
