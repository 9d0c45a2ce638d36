package verify

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gicnet/internal/core"
	"gicnet/internal/experiments"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/sim"
)

// oracleTrialCounts straddle the trial-block edges (failure.MaxBatch = 64):
// one trial, a block less one, one block, a block plus one, and three full
// blocks plus a partial one. validate runs 40 trials per pair, which never
// leaves the first partial block.
var oracleTrialCounts = []int{1, 63, 64, 65, 200}

// oracleWorkers are the worker budgets the many-pair query runs at: one
// slot, two, and budgets that leave slots idle or split blocks unevenly.
var oracleWorkers = []int{1, 2, 4, 7}

// requireOracleParity asks sim.PairSurvival about every pair in one call at
// each trial count in oracleTrialCounts and each budget in oracleWorkers,
// and holds every answer bit for bit to the full-graph oracle of its pair.
func requireOracleParity(t *testing.T, label string, plan *failure.Plan, seed uint64, pairs []sim.Pair) {
	t.Helper()
	for _, trials := range oracleTrialCounts {
		want := make([]float64, len(pairs))
		for i, p := range pairs {
			want[i] = pairSurvivalOracle(plan, trials, seed, p.From, p.To)
		}
		for _, workers := range oracleWorkers {
			got, err := sim.PairSurvival(context.Background(), plan, trials, seed, workers, pairs)
			if err != nil {
				t.Fatalf("%s trials=%d workers=%d: %v", label, trials, workers, err)
			}
			if len(got) != len(pairs) {
				t.Fatalf("%s trials=%d workers=%d: %d answers for %d pairs", label, trials, workers, len(got), len(pairs))
			}
			for i := range pairs {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s pair %d trials=%d workers=%d seed=%d: PairSurvival %v, full-graph oracle %v",
						label, i, trials, workers, seed, got[i], want[i])
				}
			}
		}
	}
}

// TestPairSurvivalMatchesOracleOnSubmarine asks about all 22 partner pairs
// of DefaultCountryCases under S1 in one call, with one pair listed twice
// and one pair whose sets overlap (gb lies in Europe, so it survives every
// trial).
func TestPairSurvivalMatchesOracleOnSubmarine(t *testing.T) {
	net := testWorld(t).Submarine
	plan, err := failure.Compile(net, failure.S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(target core.Target) []graph.NodeID {
		nodes, err := core.Resolve(net, target)
		if err != nil {
			t.Fatal(err)
		}
		return nodeIDs(nodes)
	}
	var pairs []sim.Pair
	for _, c := range experiments.DefaultCountryCases() {
		for _, partner := range c.Partners {
			pairs = append(pairs, sim.Pair{From: resolve(c.Target), To: resolve(partner)})
		}
	}
	if len(pairs) != 22 {
		t.Fatalf("%d default partner pairs, want 22", len(pairs))
	}
	pairs = append(pairs, pairs[3], sim.Pair{From: resolve("gb"), To: resolve("region:europe")})
	for seed := uint64(1); seed <= 3; seed++ {
		requireOracleParity(t, "submarine/S1", plan, seed, pairs)
	}
	probs, err := sim.PairSurvival(context.Background(), plan, 200, 1, 2, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if overlap := probs[len(probs)-1]; overlap != 1 {
		t.Errorf("overlapping pair survives %v of trials, want 1", overlap)
	}
}

// TestPairSurvivalMatchesOracleOnRandomNetworks asks, in one call per
// network, whether the first and last thirds of each random network stay
// connected (in both directions, one of them listed twice) and whether a
// third stays connected to itself, under S1 and under a uniform model that
// kills about a third of the cables, so the verdicts mix survivals and
// cuts.
func TestPairSurvivalMatchesOracleOnRandomNetworks(t *testing.T) {
	for _, net := range RandomNetworks(7) {
		n := len(net.Nodes)
		var from, to []graph.NodeID
		for i := 0; i < n/3+1; i++ {
			from = append(from, graph.NodeID(i))
			to = append(to, graph.NodeID(n-1-i))
		}
		pairs := []sim.Pair{{From: from, To: to}, {From: to, To: from}, {From: from, To: to}, {From: from, To: from}}
		for _, m := range []failure.Model{failure.S1(), failure.Uniform{P: 0.02}} {
			plan, err := failure.Compile(net, m, 150)
			if err != nil {
				t.Fatal(err)
			}
			requireOracleParity(t, fmt.Sprintf("%s/%s", net.Name, m.Name()), plan, 11, pairs)
		}
	}
}
