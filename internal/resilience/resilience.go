// Package resilience implements the §5.4 extension: standardised
// large-scale failure tests for geo-distributed Internet systems. Current
// fault-tolerance practice assumes a handful of independent site failures;
// a solar superstorm partitions the wide-area network itself. The tests
// here measure, under storm-scale correlated failures, what fraction of
// the (still-powered) Internet can reach at least one replica of a
// service.
package resilience

import (
	"errors"
	"fmt"
	"sort"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/stats"
	"gicnet/internal/xrand"
)

// Placement is a named set of service replica locations.
type Placement struct {
	Name  string
	Sites []dataset.Site
}

// GooglePlacement wraps Google's data center sites as a Placement.
func GooglePlacement() Placement {
	return Placement{Name: "google", Sites: dataset.GoogleDataCenters()}
}

// FacebookPlacement wraps Facebook's sites as a Placement.
func FacebookPlacement() Placement {
	return Placement{Name: "facebook", Sites: dataset.FacebookDataCenters()}
}

// Result summarises a placement's availability under a storm model.
type Result struct {
	Placement string
	Model     string
	// Availability aggregates per-trial reachable-user fractions: the
	// share of surviving landing points whose partition contains at
	// least one replica.
	Availability stats.Running
	// WorstTrial is the minimum availability seen.
	WorstTrial float64
	// PartitionsServed is the mean fraction of partitions containing a
	// replica (an unserved partition is a disconnected landmass whose
	// users lose the service entirely, §5.2).
	PartitionsServed stats.Running
}

// Evaluate runs the standardised storm test: trials of cable failures on
// the submarine network, measuring service availability for the placement.
// Trial ti draws its cable deaths from root.Split(ti) with
// failure.Plan.SampleDense.
func Evaluate(w *dataset.World, p Placement, m failure.Model, spacingKm float64, trials int, seed uint64) (*Result, error) {
	if len(p.Sites) == 0 {
		return nil, errors.New("resilience: placement has no sites")
	}
	if trials <= 0 {
		return nil, errors.New("resilience: trials must be positive")
	}
	net := w.Submarine
	g := net.Graph()

	// Map each replica site to its nearest landing point.
	replicaNodes := make([]int, 0, len(p.Sites))
	for _, s := range p.Sites {
		best, bestD := -1, 1e18
		for i, nd := range net.Nodes {
			if !nd.HasCoord {
				continue
			}
			if d := geo.Haversine(nd.Coord, s.Coord); d < bestD {
				bestD, best = d, i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("resilience: site %q has no reachable landing point", s.Name)
		}
		replicaNodes = append(replicaNodes, best)
	}

	plan, err := failure.Compile(net, m, spacingKm)
	if err != nil {
		return nil, err
	}
	res := &Result{Placement: p.Name, Model: m.Name(), WorstTrial: 1}
	root := xrand.New(seed)
	dead := plan.NewDead()
	var deadEdges graph.Bitset
	for ti := 0; ti < trials; ti++ {
		plan.SampleDense(dead, root.Split(uint64(ti)))
		deadEdges = net.DeadEdgeBitsInto(deadEdges, dead)
		labels, _ := g.Components(deadEdges)

		// Partitions that contain a replica.
		served := map[int]bool{}
		for _, rn := range replicaNodes {
			served[labels[rn]] = true
		}
		// Users: landing points that still have a live cable.
		iso := map[int]bool{}
		for _, n := range net.UnreachableNodes(dead) {
			iso[n] = true
		}
		users, reachable := 0, 0
		partitions := map[int]bool{}
		for i := range net.Nodes {
			if iso[i] || g.Degree(graph.NodeID(i)) == 0 {
				continue
			}
			users++
			partitions[labels[i]] = true
			if served[labels[i]] {
				reachable++
			}
		}
		avail := 1.0
		if users > 0 {
			avail = float64(reachable) / float64(users)
		}
		res.Availability.Add(avail)
		if avail < res.WorstTrial {
			res.WorstTrial = avail
		}
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

// Suite runs a placement against every reference failure state, severe
// first: S1, S2 and a uniform 1% baseline.
func Suite(w *dataset.World, p Placement, spacingKm float64, trials int, seed uint64) ([]*Result, error) {
	models := []failure.Model{failure.S1(), failure.S2(), failure.Uniform{P: 0.01}}
	out := make([]*Result, 0, len(models))
	for _, m := range models {
		r, err := Evaluate(w, p, m, spacingKm, trials, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Rank evaluates several placements under one model and orders them by
// mean availability, best first.
func Rank(w *dataset.World, ps []Placement, m failure.Model, spacingKm float64, trials int, seed uint64) ([]*Result, error) {
	out := make([]*Result, 0, len(ps))
	for _, p := range ps {
		r, err := Evaluate(w, p, m, spacingKm, trials, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Availability.Mean() > out[j].Availability.Mean()
	})
	return out, nil
}
