package failure

import (
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// The per-cable reference the compiled plan is held to, a test copy of
// internal/verify's: this package's internal tests cannot import verify.

// sampleCableDeaths draws one realisation with one rng.Bool(CableDeathProb)
// decision per cable, in cable order. Plan.SampleDense must consume the
// stream exactly as it does.
func sampleCableDeaths(net *topology.Network, m Model, spacingKm float64, rng *xrand.Source) (graph.Bitset, error) {
	if err := CheckSpacing(spacingKm); err != nil {
		return nil, err
	}
	dead := graph.NewBitset(len(net.Cables))
	for ci := range net.Cables {
		p, err := CableDeathProb(net, m, spacingKm, ci)
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
func referenceEvaluate(net *topology.Network, dead graph.Bitset) Outcome {
	out := Outcome{CablesFailed: dead.Count(), NodesUnreachable: len(net.UnreachableNodes(dead))}
	if len(net.Cables) > 0 {
		out.CableFrac = float64(out.CablesFailed) / float64(len(net.Cables))
	}
	if n := net.ConnectedNodeCount(); n > 0 {
		out.NodeFrac = float64(out.NodesUnreachable) / float64(n)
	}
	return out
}
