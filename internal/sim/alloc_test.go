//go:build !race

package sim

import (
	"context"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
)

// TestTrialLoopAllocationPins pins the per-call allocations of
// forEachBlock's callers on the S1 submarine plan: a serial arena run makes
// at most 3 (the block dispatch closure and the scorer it calls),
// PairSurvival at most 32 for one pair (its connectivity scratch, resolved
// node sets, count state and one worker slot) and at most 48 for four
// pairs, one listed twice and one whose sets are the same, and no count
// may grow with the trial count, so nothing allocates per block or per
// trial.
// Race-detector builds instrument allocations differently and skip it.
func TestTrialLoopAllocationPins(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	net := w.Submarine
	plan, err := failure.Compile(net, failure.S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	var us, gb []graph.NodeID
	for _, n := range net.NodesOfCountry("us") {
		us = append(us, graph.NodeID(n))
	}
	for _, n := range net.NodesOfCountry("gb") {
		gb = append(gb, graph.NodeID(n))
	}
	many := []Pair{{From: us, To: gb}, {From: gb, To: us}, {From: us, To: gb}, {From: us, To: us}}
	ctx := context.Background()
	a := NewArena()
	var s1 failure.Model = failure.S1() // boxed once, as a caller holding a model would
	pins := []struct {
		name string
		max  float64
		run  func(trials int) error
	}{
		{"Arena.RunPlan", 3, func(trials int) error {
			_, err := a.RunPlan(ctx, plan, Config{Trials: trials, Seed: 1, Workers: 1})
			return err
		}},
		{"Arena.RunModel", 3, func(trials int) error {
			_, err := a.RunModel(ctx, net, Config{Model: s1, SpacingKm: 150, Trials: trials, Seed: 1, Workers: 1})
			return err
		}},
		{"PairSurvival", 32, func(trials int) error {
			_, err := PairSurvival(ctx, plan, trials, 1, 1, []Pair{{From: us, To: gb}})
			return err
		}},
		{"PairSurvival/many", 48, func(trials int) error {
			_, err := PairSurvival(ctx, plan, trials, 1, 1, many)
			return err
		}},
	}
	for _, p := range pins {
		var counts []float64
		for _, trials := range []int{64, 6400} {
			if err := p.run(trials); err != nil { // warm the arena's buffers
				t.Fatal(err)
			}
			counts = append(counts, testing.AllocsPerRun(5, func() {
				if err := p.run(trials); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] > p.max || counts[1] != counts[0] {
			t.Errorf("%s allocations per call at 64 and 6400 trials = %v, want the same count, at most %v", p.name, counts, p.max)
		}
	}
}
