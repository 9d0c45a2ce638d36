package verify

import (
	"fmt"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/grid"
	"gicnet/internal/recovery"
	"gicnet/internal/routing"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Metamorphic relations for the layers downstream of the failure model —
// grid coupling, traffic routing and repair scheduling — each checked on
// the submarine map and on seeded random small networks.

const downstreamRandomNets = 8

// downstreamCase is one network with a chain of dead-cable sets, each
// containing the one before: an S1 sample, then rounds of extra deaths.
type downstreamCase struct {
	net   *topology.Network
	chain []graph.Bitset
	rng   xrand.Source // for the layer's own draws
}

func downstreamCases(w *dataset.World, seed uint64) ([]downstreamCase, error) {
	root := xrand.New(seed ^ 0xd0e5)
	nets := append([]*topology.Network{w.Submarine}, RandomNetworks(seed)...)
	cases := make([]downstreamCase, len(nets))
	for i, net := range nets {
		r := root.SplitAt(uint64(1000 + i))
		plan, err := failure.Compile(net, failure.S1(), 150)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", net.Name, err)
		}
		dead := plan.NewDead()
		plan.SampleDense(dead, &r)
		chain := []graph.Bitset{dead}
		nc := len(net.Cables)
		for round := 0; round < 3; round++ {
			dead = append(graph.Bitset(nil), dead...)
			for k := 0; k < 1+nc/10; k++ {
				dead.Set(r.Intn(nc))
			}
			chain = append(chain, dead)
		}
		cases[i] = downstreamCase{net: net, chain: chain, rng: r}
	}
	return cases, nil
}

// RandomNetworks returns the seeded random small networks the downstream
// relations check beside the submarine map; the layers' differential tests
// run on them too.
func RandomNetworks(seed uint64) []*topology.Network {
	root := xrand.New(seed ^ 0xd0e5)
	nets := make([]*topology.Network, downstreamRandomNets)
	for i := range nets {
		nets[i] = randomNetwork(root.SplitAt(uint64(i)), fmt.Sprintf("random-%d", i))
	}
	return nets
}

// randomNetwork grows a small network with every node placed somewhere on
// the globe, so routing finds gateways in most regions.
func randomNetwork(r xrand.Source, name string) *topology.Network {
	net := &topology.Network{Name: name}
	n := 4 + r.Intn(28)
	for i := 0; i < n; i++ {
		net.Nodes = append(net.Nodes, topology.Node{Name: fmt.Sprintf("n%d", i), HasCoord: true,
			Coord: geo.Coord{Lat: r.Range(-60, 75), Lon: r.Range(-180, 180)}})
	}
	for c := n + r.Intn(2*n); c > 0; c-- {
		cable := topology.Cable{Name: fmt.Sprintf("c%d", c), KnownLength: true}
		for s := 1 + r.Intn(2); s > 0; s-- {
			cable.Segments = append(cable.Segments, topology.Segment{A: r.Intn(n), B: r.Intn(n), LengthKm: r.Range(100, 12000)})
		}
		net.Cables = append(net.Cables, cable)
	}
	return net
}

// checkDownstream runs each downstream relation over every case; each
// relation reports as one named result.
func checkDownstream(w *dataset.World, seed uint64) []Result {
	relations := []struct {
		name, holds string
		check       func(c *downstreamCase) error
	}{
		{"grid-cascade-superset", "cascade output contains its input", gridCascadeSuperset},
		{"routing-stranded-monotone", "stranded volume non-decreasing under added failures", routingStrandedMonotone},
		{"recovery-restores-all", "per-repair restorations non-negative and summing to the damage", recoveryRestoresAll},
	}
	cases, err := downstreamCases(w, seed)
	var out []Result
	for _, rel := range relations {
		r := pass(rel.name, "%s on submarine and %d random networks", rel.holds, downstreamRandomNets)
		if err != nil {
			r = fail(rel.name, "%v", err)
		}
		for _, c := range cases { // a copy, so each relation starts from the same draws
			if err := rel.check(&c); err != nil {
				r = fail(rel.name, "%s: %v", c.net.Name, err)
				break
			}
		}
		out = append(out, r)
	}
	return out
}

// gridCascadeSuperset: grid coupling only adds deaths — every cable dead
// before grid.Cascade is dead after it.
func gridCascadeSuperset(c *downstreamCase) error {
	gm := grid.DefaultModel(failure.S1().Probs)
	for _, dead := range c.chain {
		out, _, err := gm.Cascade(c.net, dead, &c.rng)
		if err != nil {
			return err
		}
		for ci := range c.net.Cables {
			if dead.Get(ci) && !out.Get(ci) {
				return fmt.Errorf("cable %d dead before the cascade, alive after it", ci)
			}
		}
	}
	return nil
}

// routingStrandedMonotone: more dead cables never strand less demand,
// from the intact network through each growing dead set.
func routingStrandedMonotone(c *downstreamCase) error {
	prev := 0.0
	for i, dead := range append([]graph.Bitset{nil}, c.chain...) {
		rep, err := routing.Route(c.net, routing.DefaultDemands(), dead)
		if err != nil {
			return err
		}
		if rep.Stranded < prev {
			return fmt.Errorf("step %d: stranded volume fell %v -> %v under added failures", i, prev, rep.Stranded)
		}
		prev = rep.Stranded
	}
	return nil
}

// recoveryRestoresAll: a repair never un-restores a node — every event
// restores a non-negative count, and the counts sum to the unreachable
// nodes before the first repair.
func recoveryRestoresAll(c *downstreamCase) error {
	dead := c.chain[0]
	faults, err := recovery.FaultsFrom(c.net, dead, 150, 0.1, &c.rng)
	if err != nil {
		return err
	}
	sched, err := recovery.PlanRecovery(c.net, faults, recovery.DefaultFleet(), recovery.DefaultOptions())
	if err != nil {
		return err
	}
	restored := 0
	for _, e := range sched.Events {
		if e.NodesRestored < 0 {
			return fmt.Errorf("repairing %s un-restored %d nodes", e.Cable, -e.NodesRestored)
		}
		restored += e.NodesRestored
	}
	if before := len(c.net.UnreachableNodes(dead)); restored != before {
		return fmt.Errorf("repairs restore %d nodes, %d were unreachable", restored, before)
	}
	return nil
}
