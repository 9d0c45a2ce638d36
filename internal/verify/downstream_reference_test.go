package verify

import (
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/grid"
	"gicnet/internal/resilience"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// referenceCompare is grid.Compare's trial loop on the per-cable reference
// path: trial ti samples from root.Split(ti), and the grid cascade
// continues that stream.
func referenceCompare(net *topology.Network, fm failure.Model, gm grid.Model, spacingKm float64, trials int, seed uint64) (*grid.Amplification, error) {
	root := xrand.New(seed)
	amp := &grid.Amplification{}
	for ti := 0; ti < trials; ti++ {
		rng := root.Split(uint64(ti))
		dead, err := referenceSample(net, fm, spacingKm, rng)
		if err != nil {
			return nil, err
		}
		amp.CableFracAlone.Add(referenceEvaluate(net, dead).CableFrac)
		coupled, dark, err := gm.Cascade(net, dead, rng)
		if err != nil {
			return nil, err
		}
		amp.CableFracCoupled.Add(referenceEvaluate(net, coupled).CableFrac)
		amp.StationsDark.Add(float64(dark))
	}
	return amp, nil
}

// referenceResilience is resilience.Evaluate's trial loop on the per-cable
// reference path, with partitions from a union-find over the segments of
// live cables and users from the node-cable incidence.
func referenceResilience(net *topology.Network, p resilience.Placement, m failure.Model, spacingKm float64, trials int, seed uint64) (*resilience.Result, error) {
	var replicas []int
	for _, s := range p.Sites {
		best, bestD := -1, 1e18
		for i, nd := range net.Nodes {
			if d := geo.Haversine(nd.Coord, s.Coord); nd.HasCoord && d < bestD {
				bestD, best = d, i
			}
		}
		replicas = append(replicas, best)
	}
	start, list := net.CableIncidence()
	res := &resilience.Result{Placement: p.Name, Model: m.Name(), WorstTrial: 1}
	root := xrand.New(seed)
	for ti := 0; ti < trials; ti++ {
		dead, err := referenceSample(net, m, spacingKm, root.Split(uint64(ti)))
		if err != nil {
			return nil, err
		}
		uf := graph.NewUnionFind(len(net.Nodes))
		for ci, c := range net.Cables {
			for _, s := range c.Segments {
				if !dead.Get(ci) {
					uf.Union(s.A, s.B)
				}
			}
		}
		served := map[int]bool{}
		for _, rn := range replicas {
			served[uf.Find(rn)] = true
		}
		users, reachable := 0, 0
		partitions := map[int]bool{}
		for i := range net.Nodes {
			live := false
			for _, ci := range list[start[i]:start[i+1]] {
				live = live || !dead.Get(int(ci))
			}
			if !live {
				continue // no cable, or every cable dead
			}
			users++
			partitions[uf.Find(i)] = true
			if served[uf.Find(i)] {
				reachable++
			}
		}
		avail := 1.0
		if users > 0 {
			avail = float64(reachable) / float64(users)
		}
		res.Availability.Add(avail)
		res.WorstTrial = min(res.WorstTrial, avail)
		servedCount := 0
		for part := range partitions {
			if served[part] {
				servedCount++
			}
		}
		if len(partitions) > 0 {
			res.PartitionsServed.Add(float64(servedCount) / float64(len(partitions)))
		}
	}
	return res, nil
}

// TestDownstreamMatchesReferencePath holds grid.Compare and
// resilience.Evaluate, every field bit for bit, to their trial loops on
// the per-cable reference sampler and evaluator, at three seeds on the
// submarine map and on the random networks. Both layers draw with
// failure.Plan.SampleDense, which must consume each trial's stream as the
// reference does, so the grid draws that continue it line up too.
func TestDownstreamMatchesReferencePath(t *testing.T) {
	w := testWorld(t)
	gm := grid.DefaultModel(failure.S1().Probs)
	nets := append([]*topology.Network{w.Submarine}, RandomNetworks(dataset.DefaultSeed)...)
	for _, net := range nets {
		for _, seed := range []uint64{1, 7, 1859} {
			got, err := grid.Compare(net, failure.S2(), gm, 150, 12, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceCompare(net, failure.S2(), gm, 150, 12, seed)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Errorf("%s seed %d: grid.Compare %+v, reference %+v", net.Name, seed, *got, *want)
			}

			for _, m := range []failure.Model{failure.S1(), failure.Uniform{P: 0.01}} {
				p := resilience.GooglePlacement()
				got, err := resilience.Evaluate(&dataset.World{Submarine: net}, p, m, 150, 12, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceResilience(net, p, m, 150, 12, seed)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Errorf("%s %s seed %d: resilience.Evaluate %+v, reference %+v", net.Name, m.Name(), seed, *got, *want)
				}
			}
		}
	}
}
