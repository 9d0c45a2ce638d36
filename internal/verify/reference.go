package verify

import (
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// The per-cable reference path the compiled plan and the downstream layers
// are held to, the oracle of plan-matches-direct-path and of the layers'
// differential tests: it shares neither the plan's compiled sampling
// program nor its incidence masks.

// referenceSample draws one realisation with one rng.Bool(CableDeathProb)
// decision per cable, in cable order.
func referenceSample(net *topology.Network, m failure.Model, spacingKm float64, rng *xrand.Source) (graph.Bitset, error) {
	dead := graph.NewBitset(len(net.Cables))
	for ci := range net.Cables {
		p, err := failure.CableDeathProb(net, m, spacingKm, ci)
		if err != nil {
			return nil, err
		}
		if rng.Bool(p) {
			dead.Set(ci)
		}
	}
	return dead, nil
}

// referenceEvaluate scores a dead set by counting its cables and the nodes
// topology.UnreachableNodes reports.
func referenceEvaluate(net *topology.Network, dead graph.Bitset) failure.Outcome {
	out := failure.Outcome{CablesFailed: dead.Count(), NodesUnreachable: len(net.UnreachableNodes(dead))}
	if len(net.Cables) > 0 {
		out.CableFrac = float64(out.CablesFailed) / float64(len(net.Cables))
	}
	if n := net.ConnectedNodeCount(); n > 0 {
		out.NodeFrac = float64(out.NodesUnreachable) / float64(n)
	}
	return out
}
