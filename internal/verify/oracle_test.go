package verify

import (
	"context"
	"math"
	"testing"

	"gicnet/internal/core"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/sim"
)

// oracleTrialCounts straddle the trial-block edges (failure.MaxBatch = 64):
// one trial, a block less one, one block, a block plus one, and three full
// blocks plus a partial one. validate runs 40 trials per pair, which never
// leaves the first partial block.
var oracleTrialCounts = []int{1, 63, 64, 65, 200}

// requireOracleParity holds sim.PairSurvival to the full-graph oracle at
// every trial count in oracleTrialCounts, bit for bit.
func requireOracleParity(t *testing.T, label string, plan *failure.Plan, seed uint64, from, to []graph.NodeID) {
	t.Helper()
	for _, trials := range oracleTrialCounts {
		got, err := sim.PairSurvival(context.Background(), plan, trials, seed, from, to)
		if err != nil {
			t.Fatalf("%s trials=%d: %v", label, trials, err)
		}
		want := pairSurvivalOracle(plan, trials, seed, from, to)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s trials=%d seed=%d: PairSurvival %v, full-graph oracle %v", label, trials, seed, got, want)
		}
	}
}

func TestPairSurvivalMatchesOracleOnSubmarine(t *testing.T) {
	net := testWorld(t).Submarine
	plan, err := failure.Compile(net, failure.S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]core.Target{{"us", "region:europe"}, {"gb", "us"}} {
		from, err := core.Resolve(net, pair[0])
		if err != nil {
			t.Fatal(err)
		}
		to, err := core.Resolve(net, pair[1])
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			requireOracleParity(t, string(pair[0])+"-"+string(pair[1]), plan, seed, nodeIDs(from), nodeIDs(to))
		}
	}
}

// TestPairSurvivalMatchesOracleOnRandomNetworks asks whether the first
// and last thirds of each random network stay connected, under S1 and
// under a uniform model that kills about a third of the cables, so the
// verdicts mix survivals and cuts.
func TestPairSurvivalMatchesOracleOnRandomNetworks(t *testing.T) {
	for _, net := range RandomNetworks(7) {
		n := len(net.Nodes)
		var from, to []graph.NodeID
		for i := 0; i < n/3+1; i++ {
			from = append(from, graph.NodeID(i))
			to = append(to, graph.NodeID(n-1-i))
		}
		for _, m := range []failure.Model{failure.S1(), failure.Uniform{P: 0.02}} {
			plan, err := failure.Compile(net, m, 150)
			if err != nil {
				t.Fatal(err)
			}
			requireOracleParity(t, net.Name+"/"+m.Name(), plan, 11, from, to)
		}
	}
}
