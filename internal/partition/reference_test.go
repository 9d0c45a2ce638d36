package partition

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gicnet/internal/core"
	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/gic"
	"gicnet/internal/graph"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
)

// priceCandidatesFullCopy is the survival pricing as it was before
// candidates were priced on their own: each candidate is appended to a
// full copy of the network (withCandidate, its backhaul nodes searched
// afresh by the scan, NearestOfCountryScan) and priced there. It prices
// under several models at once, so one copy per candidate serves all of
// them, and lists the candidates in enumeration order.
func priceCandidatesFullCopy(net *topology.Network, models []failure.Model, spacingKm float64) ([][]Candidate, error) {
	var cands []Candidate
	for _, from := range dataset.Anchors() {
		if from.Coord.AbsLat() >= geo.MidBandCut {
			continue
		}
		for _, to := range dataset.Anchors() {
			if to.Name <= from.Name || to.Coord.AbsLat() >= geo.MidBandCut {
				continue
			}
			if geo.RegionOf(from.Coord) == geo.RegionOf(to.Coord) {
				continue
			}
			d := geo.Haversine(from.Coord, to.Coord) * 1.2
			if d < 3000 || d > 12000 {
				continue
			}
			cands = append(cands, Candidate{
				From: from.Name, To: to.Name, LengthKm: d,
				MaxAbsLat: math.Max(from.Coord.AbsLat(), to.Coord.AbsLat()),
			})
		}
	}
	out := make([][]Candidate, len(models))
	for _, c := range cands {
		tmp, err := augmented(net, c)
		if err != nil {
			return nil, err
		}
		for mi, m := range models {
			p, err := failure.CableDeathProb(tmp, m, spacingKm, len(tmp.Cables)-1)
			if err != nil {
				return nil, err
			}
			priced := c
			priced.SurvivalProb = 1 - p
			out[mi] = append(out[mi], priced)
		}
	}
	return out, nil
}

// NearestOfCountryScan is nearestOfCountry as it was before the screen:
// a haversine to every located node, divided by 10 within the anchor's
// country, ties to the lowest index. The differential tests hold
// nearestOfCountry to it, and the full-copy pricing and the augmented
// copies use it.
func NearestOfCountryScan(net *topology.Network, a dataset.Anchor) int {
	best, bestD := -1, 1e18
	for i, nd := range net.Nodes {
		if !nd.HasCoord {
			continue
		}
		d := geo.Haversine(nd.Coord, a.Coord)
		if nd.Country == a.Country {
			d /= 10
		}
		if d < bestD {
			bestD, best = d, i
		}
	}
	return best
}

// NearestOfCountry is the screened backhaul search, for the external
// differential tests.
func NearestOfCountry(net *topology.Network, a dataset.Anchor) int {
	return nearestOfCountry(net, unitVecs(net), a)
}

// withCandidate returns a copy of net with the candidate cable appended,
// written out by hand: two new landings at its anchors and one cable of
// three segments, the bridge itself and a 50 km backhaul from each landing
// to nodes nearFrom and nearTo.
func withCandidate(net *topology.Network, c Candidate, nearFrom, nearTo int) (*topology.Network, error) {
	fromA, okA := dataset.AnchorByName(c.From)
	toA, okB := dataset.AnchorByName(c.To)
	if !okA || !okB {
		return nil, fmt.Errorf("partition: unknown anchor %q or %q", c.From, c.To)
	}
	cp := &topology.Network{Name: net.Name + "+candidate"}
	cp.Nodes = append(cp.Nodes, net.Nodes...)
	cp.Cables = append(cp.Cables, net.Cables...)
	a := len(cp.Nodes)
	cp.Nodes = append(cp.Nodes, topology.Node{
		Name: "cand-" + c.From, Coord: fromA.Coord, HasCoord: true, Country: fromA.Country,
	})
	b := len(cp.Nodes)
	cp.Nodes = append(cp.Nodes, topology.Node{
		Name: "cand-" + c.To, Coord: toA.Coord, HasCoord: true, Country: toA.Country,
	})
	cp.Cables = append(cp.Cables, topology.Cable{
		Name: fmt.Sprintf("candidate-%s-%s", c.From, c.To),
		Segments: []topology.Segment{
			{A: a, B: b, LengthKm: c.LengthKm},
			{A: a, B: nearFrom, LengthKm: 50},
			{A: b, B: nearTo, LengthKm: 50},
		},
		KnownLength: true,
	})
	return cp, nil
}

// augmented is withCandidate tied into the backhaul nodes the scan picks.
func augmented(net *topology.Network, c Candidate) (*topology.Network, error) {
	fromA, okA := dataset.AnchorByName(c.From)
	toA, okB := dataset.AnchorByName(c.To)
	if !okA || !okB {
		return nil, fmt.Errorf("partition: unknown anchor %q or %q", c.From, c.To)
	}
	return withCandidate(net, c, NearestOfCountryScan(net, fromA), NearestOfCountryScan(net, toA))
}

// pairSurvival is the augmented-copy Monte Carlo: the survival of the
// probeA-probeB pair on net (any network, an augmented copy included),
// with both probes resolved on net by core.Resolve.
func pairSurvival(net *topology.Network, m failure.Model, spacingKm float64, trials int, seed uint64, probeA, probeB string) (float64, error) {
	var pair sim.Pair
	for i, t := range []core.Target{core.Target(probeA), core.Target(probeB)} {
		nodes, err := core.Resolve(net, t)
		if err != nil {
			return 0, err
		}
		ids := make([]graph.NodeID, len(nodes))
		for k, v := range nodes {
			ids[k] = graph.NodeID(v)
		}
		if i == 0 {
			pair.From = ids
		} else {
			pair.To = ids
		}
	}
	plan, err := failure.Compile(net, m, spacingKm)
	if err != nil {
		return 0, err
	}
	probs, err := sim.PairSurvival(context.Background(), plan, trials, seed, 0, []sim.Pair{pair})
	if err != nil {
		return 0, err
	}
	return probs[0], nil
}

// PairSurvival and Augmented export the reference for the external
// differential tests, and RecommendOn the pricer on any network at a
// worker budget.
var (
	PairSurvival = pairSurvival
	Augmented    = augmented
)

func RecommendOn(net *topology.Network, m failure.Model, spacingKm float64, trials int, seed uint64, workers, n int, probeA, probeB string) ([]Candidate, error) {
	return recommend(context.Background(), net, m, spacingKm, trials, seed, workers, n, probeA, probeB)
}

// TestRankCandidatesMatchesFullCopy prices every candidate of one
// Recommend call under each model family of the module and requires the
// full-copy pricing exactly: the same candidates in the same enumeration
// order, each with the same survival probability. The path-banded models run on a
// small map (every twentieth submarine cable and its nodes), because a
// full copy prices them by tracing every cable's great-circle path again
// per candidate, about 15 s on the whole map; the endpoint-banded models
// run on the whole map.
func TestRankCandidatesMatchesFullCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("candidate search over the full topology skipped in short mode")
	}
	net := world(t).Submarine
	small := &topology.Network{Name: net.Name + "/20"}
	index := map[int]int{}
	node := func(i int) int {
		if _, ok := index[i]; !ok {
			index[i] = len(small.Nodes)
			small.Nodes = append(small.Nodes, net.Nodes[i])
		}
		return index[i]
	}
	for ci := 0; ci < len(net.Cables); ci += 20 {
		c := net.Cables[ci]
		c.Segments = append([]topology.Segment(nil), c.Segments...)
		for k, seg := range c.Segments {
			c.Segments[k].A, c.Segments[k].B = node(seg.A), node(seg.B)
		}
		small.Cables = append(small.Cables, c)
	}
	storm, err := failure.FromStorm(gic.NewYorkRailroad, gic.DefaultSubmarineConductor(), gic.DefaultRepeaterTolerance())
	if err != nil {
		t.Fatal(err)
	}
	endpointBanded := []failure.Model{
		failure.Uniform{P: 0.01},
		failure.S1(),
		failure.S2(),
		storm,
		failure.Scaled{Base: failure.S1(), Factor: 0.5},
		failure.Overlay{A: failure.S2(), B: failure.Uniform{P: 0.001}},
	}
	pathBanded := []failure.Model{
		failure.S1Path(),
		failure.Worst{A: failure.S2(), B: failure.S1Path()},
	}
	for _, run := range []struct {
		net    *topology.Network
		models []failure.Model
	}{
		{net, endpointBanded},
		{small, pathBanded},
	} {
		want, err := priceCandidatesFullCopy(run.net, run.models, 150)
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range run.models {
			cs, err := candidates(run.net, m, 150)
			if err != nil {
				t.Fatal(err)
			}
			got := cs.cands
			if len(got) != len(want[mi]) {
				t.Fatalf("%s, %s: %d candidates, want %d", run.net.Name, m.Name(), len(got), len(want[mi]))
			}
			for i := range got {
				if got[i] != want[mi][i] {
					t.Fatalf("%s, %s: candidate %d is %+v, want %+v", run.net.Name, m.Name(), i, got[i], want[mi][i])
				}
			}
		}
	}
}
