package verify

import (
	"context"
	"errors"
	"fmt"
	"math"

	"gicnet/internal/core"
	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/xrand"
)

// pairSurvivalOracle is the full-graph reference for sim.PairSurvival. It
// shares no code with sim's trial-block loop: trials run one at a time,
// trial t draws from root.SplitAt(t), its dead cables are projected onto
// their graph edges, and a union-find over the whole graph answers whether
// any from node still reaches any to node.
func pairSurvivalOracle(plan *failure.Plan, trials int, seed uint64, from, to []graph.NodeID) float64 {
	net := plan.Network()
	scratch := net.Graph().NewScratch()
	root := xrand.New(seed)
	dead := plan.NewDead()
	var deadEdges graph.Bitset
	survived := 0
	for t := 0; t < trials; t++ {
		rng := root.SplitAt(uint64(t))
		plan.SampleInto(dead, &rng)
		deadEdges = net.DeadEdgeBitsInto(deadEdges, dead)
		if scratch.AnyConnectedBits(deadEdges, from, to) {
			survived++
		}
	}
	return float64(survived) / float64(trials)
}

// checkContractedDirectParity holds the country analysis's connectivity
// engine — sim.PairSurvival on the plan's core contraction, every partner
// pair of a state from one shared trial set — to the full-graph oracle:
// every partner survival experiments.Countries reports
// for DefaultCountryCases, under S1 and S2 at worker budgets 1 and 4, must
// equal the oracle's bit for bit.
func checkContractedDirectParity(w *dataset.World, seed uint64) Result {
	const name = "contracted-direct-parity"
	s1, err1 := failure.Compile(w.Submarine, failure.S1(), 150)
	s2, err2 := failure.Compile(w.Submarine, failure.S2(), 150)
	if err := errors.Join(err1, err2); err != nil {
		return fail(name, "compile: %v", err)
	}
	plans := map[string]*failure.Plan{"S1": s1, "S2": s2}
	cases := experiments.DefaultCountryCases()
	pairs := 0
	for _, c := range cases {
		pairs += len(plans) * len(c.Partners)
	}
	want := map[string]float64{} // oracle survival per "state from-to"
	compared := 0
	var fp uint64
	for _, workers := range []int{1, 4} {
		res, err := experiments.Countries(context.Background(), w, experiments.Config{Trials: 4, Seed: seed, Workers: workers}, cases)
		if err == nil && workers == 1 {
			fp, err = jsonFingerprint(res)
		}
		if err != nil {
			return fail(name, "countries workers=%d: %v", workers, err)
		}
		for _, state := range []string{"S1", "S2"} {
			for _, rep := range res.Reports[state] {
				for _, p := range rep.Partners {
					key := fmt.Sprintf("%s %s-%s", state, rep.Target, p.To)
					oracle, ok := want[key]
					if !ok {
						if oracle, err = oracleSurvival(plans[state], p.Trials, seed, rep.Target, p.To); err != nil {
							return fail(name, "%s: %v", key, err)
						}
						want[key] = oracle
					}
					if math.Float64bits(p.SurvivalProb) != math.Float64bits(oracle) {
						return fail(name, "%s workers=%d: contracted survival %v, full-graph oracle %v over %d trials",
							key, workers, p.SurvivalProb, oracle, p.Trials)
					}
					compared++
				}
			}
		}
	}
	if len(want) != pairs || compared != 2*pairs {
		return fail(name, "compared %d partner survivals over %d pairs, want %d pairs at each worker budget", compared, len(want), pairs)
	}
	return pass(name, "%d partner survivals of %d country cases under S1 and S2 equal the full-graph oracle bit for bit at workers {1,4} (country=%016x)",
		pairs, len(cases), fp)
}

// oracleSurvival resolves a target pair the way core does and runs the
// oracle on it; core.Resolve refuses a target that matches no node.
func oracleSurvival(plan *failure.Plan, trials int, seed uint64, from, to core.Target) (float64, error) {
	a, err := core.Resolve(plan.Network(), from)
	if err != nil {
		return 0, err
	}
	b, err := core.Resolve(plan.Network(), to)
	if err != nil {
		return 0, err
	}
	return pairSurvivalOracle(plan, trials, seed, nodeIDs(a), nodeIDs(b)), nil
}
