// Package partition implements the §5.3 / §5.1 extensions: analysing how
// the Internet fragments after a storm, and recommending low-latitude
// cable additions that keep the partitions stitched together (the paper's
// guidance: add capacity in lower latitudes and more links through Central
// and South America).
package partition

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
)

// Fragmentation summarises one post-storm partition realisation.
type Fragmentation struct {
	// Components is the number of connected components among nodes that
	// still have at least one live cable.
	Components int
	// LargestFrac is the largest component's share of connected nodes.
	LargestFrac float64
	// IsolatedNodes counts nodes with every cable dead.
	IsolatedNodes int
	// RegionSplit counts, per region, how many distinct components its
	// nodes fall into — the paper's "potentially disconnected landmasses".
	RegionSplit map[geo.Region]int
}

// Analyze computes the fragmentation of a network under a cable-death
// realisation: component labels come from one Components pass over the
// alive edges.
func Analyze(net *topology.Network, cableDead []bool) (*Fragmentation, error) {
	if len(cableDead) != len(net.Cables) {
		return nil, errors.New("partition: death vector length mismatch")
	}
	g := net.Graph()
	labels, _ := g.Components(net.AliveMask(cableDead))
	// Only nodes with a live cable participate in "components".
	iso := map[int]bool{}
	for _, n := range net.UnreachableNodes(cableDead) {
		iso[n] = true
	}
	compSet := map[int]int{}
	regionComps := map[geo.Region]map[int]bool{}
	connected := 0
	for i, nd := range net.Nodes {
		if iso[i] || g.Degree(graph.NodeID(i)) == 0 {
			continue
		}
		connected++
		label := labels[i]
		compSet[label]++
		if nd.HasCoord {
			r := geo.RegionOf(nd.Coord)
			if regionComps[r] == nil {
				regionComps[r] = map[int]bool{}
			}
			regionComps[r][label] = true
		}
	}
	largest := 0
	for _, n := range compSet {
		if n > largest {
			largest = n
		}
	}
	f := &Fragmentation{
		Components:    len(compSet),
		IsolatedNodes: len(iso),
		RegionSplit:   map[geo.Region]int{},
	}
	if connected > 0 {
		f.LargestFrac = float64(largest) / float64(connected)
	}
	for r, comps := range regionComps {
		f.RegionSplit[r] = len(comps)
	}
	return f, nil
}

// Candidate is a proposed new low-latitude cable.
type Candidate struct {
	From, To string // anchor names
	LengthKm float64
	// MaxAbsLat of the two endpoints: drives the survival probability.
	MaxAbsLat float64
	// SurvivalProb under the reference model.
	SurvivalProb float64
	// Benefit is the measured improvement in cross-partition survival
	// (filled by Recommend).
	Benefit float64
}

// Recommend proposes up to n new cables between anchor pairs, favouring
// low-latitude routes (both endpoints below the mid-band cut) that bridge
// different regions, ranked by the connectivity benefit they add between
// the two probe targets under the model. It mutates nothing.
//
// Every candidate is priced analytically for the pre-rank, and only the
// top 4n are simulated, each on a copy of the network with the candidate
// appended. The pre-rank prices a candidate on a network holding just the
// candidate cable and its four nodes, which gives the same price as the
// augmented copy because a model prices a cable from that cable's own
// segments and nodes. Every model in this module does; a failure.Func
// that reads other cables, or the cable's index, does not, and would rank
// the candidates differently.
func Recommend(w *dataset.World, m failure.Model, spacingKm float64, trials int, seed uint64, n int, probeA, probeB string) ([]Candidate, error) {
	if n <= 0 {
		return nil, errors.New("partition: need n > 0")
	}
	net := w.Submarine
	base, err := pairSurvival(net, m, spacingKm, trials, seed, probeA, probeB)
	if err != nil {
		return nil, err
	}
	cands, backhaul, err := rankCandidates(net, m, spacingKm, probeA, probeB)
	if err != nil {
		return nil, err
	}
	limit := 4 * n
	if limit > len(cands) {
		limit = len(cands)
	}
	evaluated := cands[:limit]
	for i := range evaluated {
		c := evaluated[i]
		augmented, err := withCandidate(net, c, backhaul[c.From], backhaul[c.To])
		if err != nil {
			return nil, err
		}
		after, err := pairSurvival(augmented, m, spacingKm, trials, seed, probeA, probeB)
		if err != nil {
			return nil, err
		}
		evaluated[i].Benefit = after - base
	}
	sort.Slice(evaluated, func(i, j int) bool { return evaluated[i].Benefit > evaluated[j].Benefit })
	if len(evaluated) > n {
		evaluated = evaluated[:n]
	}
	return evaluated, nil
}

// rankCandidates lists every bridge candidate with its survival
// probability, sorted by the analytic pre-rank: survival times probe
// relevance. A bridge can only help the probe pair if its landings sit
// near the probes' nodes — one end near each side. It also returns each
// low-latitude anchor's backhaul node (nearestOfCountry) by anchor name.
func rankCandidates(net *topology.Network, m failure.Model, spacingKm float64, probeA, probeB string) ([]Candidate, map[string]int, error) {
	anchors := dataset.Anchors()
	probeACoords := coordsOf(net, nodesOf(net, probeA))
	probeBCoords := coordsOf(net, nodesOf(net, probeB))
	units := unitVecs(net)
	// Each low-latitude anchor's landing node, backhaul node and distance
	// to each probe side, shared by every candidate that lands there.
	type end struct {
		landing  topology.Node
		backhaul int
		toA, toB float64
	}
	ends := make([]end, len(anchors))
	backhauls := make(map[string]int)
	for i, a := range anchors {
		if a.Coord.AbsLat() >= geo.MidBandCut {
			continue
		}
		backhaul := nearestOfCountry(net, units, a)
		if backhaul < 0 {
			return nil, nil, fmt.Errorf("partition: no node with coordinates to tie anchor %q into", a.Name)
		}
		ends[i] = end{landing(a), backhaul, minDist(a.Coord, probeACoords), minDist(a.Coord, probeBCoords)}
		backhauls[a.Name] = backhaul
	}

	var cands []Candidate
	var prelim []float64
	for i, from := range anchors {
		if from.Coord.AbsLat() >= geo.MidBandCut {
			continue
		}
		for j, to := range anchors {
			if to.Name <= from.Name || to.Coord.AbsLat() >= geo.MidBandCut {
				continue
			}
			if geo.RegionOf(from.Coord) == geo.RegionOf(to.Coord) {
				continue // bridges must cross regions
			}
			d := geo.Haversine(from.Coord, to.Coord) * 1.2
			if d < 3000 || d > 12000 {
				continue // too short to matter / too long to survive
			}
			c := Candidate{
				From: from.Name, To: to.Name, LengthKm: d,
				MaxAbsLat: maxf(from.Coord.AbsLat(), to.Coord.AbsLat()),
			}
			a, b := &ends[i], &ends[j]
			alone := &topology.Network{
				Name:   net.Name + "+candidate",
				Nodes:  []topology.Node{a.landing, b.landing, net.Nodes[a.backhaul], net.Nodes[b.backhaul]},
				Cables: []topology.Cable{candidateCable(c, 0, 1, 2, 3)},
			}
			p, err := failure.CableDeathProb(alone, m, spacingKm, 0)
			if err != nil {
				return nil, nil, err
			}
			c.SurvivalProb = 1 - p
			// Best assignment of the two endpoints to the two probe sides.
			dist := a.toA + b.toB
			if d2 := a.toB + b.toA; d2 < dist {
				dist = d2
			}
			relevance := 1 / (1 + dist/4000)
			cands = append(cands, c)
			prelim = append(prelim, c.SurvivalProb*relevance)
		}
	}
	sort.Sort(&byScore{cands, prelim})
	return cands, backhauls, nil
}

// byScore sorts candidates and their scores together, descending.
type byScore struct {
	cands  []Candidate
	scores []float64
}

func (b *byScore) Len() int           { return len(b.cands) }
func (b *byScore) Less(i, j int) bool { return b.scores[i] > b.scores[j] }
func (b *byScore) Swap(i, j int) {
	b.cands[i], b.cands[j] = b.cands[j], b.cands[i]
	b.scores[i], b.scores[j] = b.scores[j], b.scores[i]
}

// coordsOf extracts coordinates of node indices with coordinates.
func coordsOf(net *topology.Network, nodes []int) []geo.Coord {
	out := make([]geo.Coord, 0, len(nodes))
	for _, n := range nodes {
		if net.Nodes[n].HasCoord {
			out = append(out, net.Nodes[n].Coord)
		}
	}
	return out
}

// minDist returns the smallest haversine distance from c to any of pts
// (infinite if pts is empty).
func minDist(c geo.Coord, pts []geo.Coord) float64 {
	best := 1e18
	for _, p := range pts {
		if d := geo.Haversine(c, p); d < best {
			best = d
		}
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// withCandidate returns a copy of net with the candidate cable appended,
// its landings tied into nodes nearFrom and nearTo (the backhaul nodes of
// c.From and c.To).
func withCandidate(net *topology.Network, c Candidate, nearFrom, nearTo int) (*topology.Network, error) {
	fromA, okA := dataset.AnchorByName(c.From)
	toA, okB := dataset.AnchorByName(c.To)
	if !okA || !okB {
		return nil, fmt.Errorf("partition: unknown anchor %q or %q", c.From, c.To)
	}
	cp := &topology.Network{Name: net.Name + "+candidate"}
	cp.Nodes = append(cp.Nodes, net.Nodes...)
	cp.Cables = append(cp.Cables, net.Cables...)
	a, b := len(cp.Nodes), len(cp.Nodes)+1
	cp.Nodes = append(cp.Nodes, landing(fromA), landing(toA))
	cp.Cables = append(cp.Cables, candidateCable(c, a, b, nearFrom, nearTo))
	return cp, nil
}

// landing is the new landing station a candidate cable adds at an anchor.
func landing(a dataset.Anchor) topology.Node {
	return topology.Node{Name: "cand-" + a.Name, Coord: a.Coord, HasCoord: true, Country: a.Country}
}

// candidateCable is the candidate's cable between landing nodes a and b,
// tied into the existing network with short backhaul segments to nodes
// nearA and nearB (the nearest existing node of the same country).
func candidateCable(c Candidate, a, b, nearA, nearB int) topology.Cable {
	return topology.Cable{
		Name: fmt.Sprintf("candidate-%s-%s", c.From, c.To),
		Segments: []topology.Segment{
			{A: a, B: b, LengthKm: c.LengthKm},
			{A: a, B: nearA, LengthKm: 50},
			{A: b, B: nearB, LengthKm: 50},
		},
		KnownLength: true,
	}
}

// nearestOfCountry finds the nearest existing node in the anchor's
// country, falling back to the globally nearest node with coordinates:
// the node with the least haversine distance, divided by 10 for nodes of
// the anchor's country, ties to the lowest index. units holds every
// node's unit vector (unitVecs). Each country class has its own screen,
// because one weight holds within a class: a node the screen skips is
// strictly farther than a node of its own class already weighed.
func nearestOfCountry(net *topology.Network, units []geo.Vec, a dataset.Anchor) int {
	q := geo.UnitVec(a.Coord)
	same, other := geo.NewScreen(), geo.NewScreen()
	best, bestD := -1, 1e18
	for i, nd := range net.Nodes {
		if !nd.HasCoord {
			continue
		}
		home := nd.Country == a.Country
		screen := &other
		if home {
			screen = &same
		}
		if !screen.Admit(q.Dot(units[i])) {
			continue
		}
		d := geo.Haversine(nd.Coord, a.Coord)
		if home {
			d /= 10 // strong preference for same-country backhaul
		}
		if d < bestD {
			bestD, best = d, i
		}
	}
	return best
}

// unitVecs returns every node's coordinate as a unit vector (the zero
// vector for nodes without coordinates).
func unitVecs(net *topology.Network) []geo.Vec {
	units := make([]geo.Vec, len(net.Nodes))
	for i, nd := range net.Nodes {
		if nd.HasCoord {
			units[i] = geo.UnitVec(nd.Coord)
		}
	}
	return units
}

// pairSurvival is a local Monte Carlo of target-set connectivity (the
// core package owns the richer version; this one works on arbitrary
// networks including augmented copies). The trial loop is sim.PairSurvival
// on the plan's core contraction.
func pairSurvival(net *topology.Network, m failure.Model, spacingKm float64, trials int, seed uint64, countryA, countryB string) (float64, error) {
	if trials <= 0 {
		return 0, errors.New("partition: trials must be positive")
	}
	a := nodeIDsOf(net, countryA)
	b := nodeIDsOf(net, countryB)
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("partition: no nodes for %q or %q", countryA, countryB)
	}
	plan, err := failure.Compile(net, m, spacingKm)
	if err != nil {
		return 0, err
	}
	return sim.PairSurvival(context.Background(), plan, trials, seed, a, b)
}

// nodeIDsOf is nodesOf as graph node IDs, for the scratch connectivity
// queries.
func nodeIDsOf(net *topology.Network, target string) []graph.NodeID {
	xs := nodesOf(net, target)
	out := make([]graph.NodeID, len(xs))
	for i, x := range xs {
		out[i] = graph.NodeID(x)
	}
	return out
}

// nodesOf resolves a country code or "region:<name>" target.
func nodesOf(net *topology.Network, target string) []int {
	if len(target) > 7 && target[:7] == "region:" {
		want := geo.Region(target[7:])
		var out []int
		for i, nd := range net.Nodes {
			if nd.HasCoord && geo.RegionOf(nd.Coord) == want {
				out = append(out, i)
			}
		}
		return out
	}
	return net.NodesOfCountry(target)
}
