// Package partition implements the §5.3 / §5.1 extensions: analysing how
// the Internet fragments after a storm, and recommending low-latitude
// cable additions that keep the partitions stitched together (the paper's
// guidance: add capacity in lower latitudes and more links through Central
// and South America).
package partition

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"gicnet/internal/core"
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

// Analyze computes the fragmentation of a network under a dead-cable set:
// component labels come from one Components pass over the alive edges. A
// network or set that topology.ValidateDead refuses is an error.
func Analyze(net *topology.Network, cableDead graph.Bitset) (*Fragmentation, error) {
	if err := net.ValidateDead(cableDead); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	g := net.Graph()
	labels, _ := g.Components(net.DeadEdgeBitsInto(nil, cableDead))
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
	// Benefit is the gain in probe-pair survival the cable would bring
	// (filled by Recommend).
	Benefit float64
}

// Recommend proposes up to n new cables between anchor pairs, favouring
// low-latitude routes (both endpoints below the mid-band cut) that bridge
// different regions, ranked by the connectivity benefit they add between
// the two probe targets under the model. It mutates nothing.
//
// Every candidate is priced exactly from one base run of trials trials,
// trial t drawn from SplitAt(t) of seed as in sim.Run. A candidate dies
// independently of every existing cable, so its benefit is its survival
// probability times the share of base trials in which the probe pair is
// cut and the group the cable would merge (the components of its two
// backhaul nodes and its two new landings) touches both probe sides. A
// landing is on a side when the probe's target grammar (core.Target.Match)
// takes it, as resolving the probe on the augmented network would.
// Candidates are sorted by benefit, ties broken by survival and then by
// anchor names.
//
// Survival is priced on a network holding just the candidate cable and its
// four nodes, which gives the same price as the augmented network because
// a model prices a cable from that cable's own segments and nodes. Every
// model in this module does; a failure.Func that reads other cables, or the
// cable's index, does not, and would price the candidates differently.
func Recommend(w *dataset.World, m failure.Model, spacingKm float64, trials int, seed uint64, n int, probeA, probeB string) ([]Candidate, error) {
	return recommend(context.Background(), w.Submarine, m, spacingKm, trials, seed, 0, n, probeA, probeB)
}

// recommend is Recommend on any network, with the base run spread over a
// workers budget (0 means GOMAXPROCS) that does not change the answer.
func recommend(ctx context.Context, net *topology.Network, m failure.Model, spacingKm float64, trials int, seed uint64, workers, n int, probeA, probeB string) ([]Candidate, error) {
	if n <= 0 {
		return nil, errors.New("partition: need n > 0")
	}
	if trials <= 0 {
		return nil, errors.New("partition: trials must be positive")
	}
	sides := [2]core.Target{core.Target(probeA), core.Target(probeB)}
	var probe [2][]graph.NodeID
	for i, t := range sides {
		nodes, err := core.Resolve(net, t)
		if err != nil {
			return nil, fmt.Errorf("partition: probe: %w", err)
		}
		for _, v := range nodes {
			probe[i] = append(probe[i], graph.NodeID(v))
		}
	}
	cs, err := candidates(net, m, spacingKm)
	if err != nil {
		return nil, err
	}
	plan, err := failure.Compile(net, m, spacingKm)
	if err != nil {
		return nil, err
	}
	if err := cs.price(ctx, plan, trials, seed, workers, sides, probe); err != nil {
		return nil, err
	}
	cands := cs.cands
	slices.SortFunc(cands, func(x, y Candidate) int {
		return cmp.Or(cmp.Compare(y.Benefit, x.Benefit), cmp.Compare(y.SurvivalProb, x.SurvivalProb),
			strings.Compare(x.From, y.From), strings.Compare(x.To, y.To))
	})
	return slices.Clone(cands[:min(n, len(cands))]), nil
}

// end is a low-latitude anchor as a candidate cable lands there: the new
// landing node and the existing node it is backhauled to.
type end struct {
	landing  topology.Node
	backhaul int
}

// candidateSet is every bridge candidate of a network, the anchor ends
// they land on, and the two ends (indices into ends) each candidate joins.
type candidateSet struct {
	ends  []end
	cands []Candidate
	joins [][2]int
}

// candidates lists every bridge candidate with its survival probability
// under m. Each low-latitude anchor's backhaul node (nearestOfCountry) is
// found once and shared by every candidate that lands there.
func candidates(net *topology.Network, m failure.Model, spacingKm float64) (*candidateSet, error) {
	units := unitVecs(net)
	cs := &candidateSet{}
	var low []dataset.Anchor
	for _, a := range dataset.Anchors() {
		if a.Coord.AbsLat() >= geo.MidBandCut {
			continue
		}
		backhaul := nearestOfCountry(net, units, a)
		if backhaul < 0 {
			return nil, fmt.Errorf("partition: no node with coordinates to tie anchor %q into", a.Name)
		}
		low = append(low, a)
		cs.ends = append(cs.ends, end{landing(a), backhaul})
	}
	for i, from := range low {
		for j, to := range low {
			if to.Name <= from.Name {
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
				MaxAbsLat: max(from.Coord.AbsLat(), to.Coord.AbsLat()),
			}
			a, b := &cs.ends[i], &cs.ends[j]
			alone := &topology.Network{
				Name:   net.Name + "+candidate",
				Nodes:  []topology.Node{a.landing, b.landing, net.Nodes[a.backhaul], net.Nodes[b.backhaul]},
				Cables: []topology.Cable{candidateCable(c, 0, 1, 2, 3)},
			}
			p, err := failure.CableDeathProb(alone, m, spacingKm, 0)
			if err != nil {
				return nil, err
			}
			c.SurvivalProb = 1 - p
			cs.cands = append(cs.cands, c)
			cs.joins = append(cs.joins, [2]int{i, j})
		}
	}
	return cs, nil
}

// pricing is one worker slot's state while candidates are priced: the
// per-supernode marks of the probe sides' components in the current cut
// trial, each end's sides, and each candidate's count of bridged cut
// trials.
type pricing struct {
	trial  int
	marked [2][]int  // per component root: the trial that last marked it on side 0 or 1
	on     [2][]bool // per end: its merged group reaches side 0 or 1
	counts []int
}

// price fills every candidate's Benefit from trials base trials of plan,
// read through their component labels (sim.ForEachLabels). In a trial
// where the probe pair is cut, an end is on a side when its landing is
// (sides[k].Match) or its backhaul node's component holds a node of that
// side, and a candidate bridges the trial when its two ends together reach
// both sides. A landing on both sides connects the pair whatever the
// candidate's fate, so such a candidate's benefit is the whole cut share.
func (cs *candidateSet) price(ctx context.Context, plan *failure.Plan, trials int, seed uint64, workers int, sides [2]core.Target, probe [2][]graph.NodeID) error {
	cc := plan.Contraction()
	var supers [2][]int32
	var landOn [2][]bool
	for k := range sides {
		supers[k] = cc.SupersOf(nil, probe[k])
		has := sides[k].Match()
		for i := range cs.ends {
			landOn[k] = append(landOn[k], has(&cs.ends[i].landing))
		}
	}
	backhaul := make([]int32, len(cs.ends))
	for i, e := range cs.ends {
		backhaul[i] = cc.Super(graph.NodeID(e.backhaul))
	}
	slots, err := sim.ForEachLabels(ctx, plan, trials, seed, workers, func() *pricing {
		s := &pricing{counts: make([]int, len(cs.cands))}
		for k := range s.marked {
			s.marked[k] = make([]int, cc.NumSupernodes())
			s.on[k] = make([]bool, len(cs.ends))
		}
		return s
	}, func(s *pricing, t *graph.CoreTrial) {
		if t.Connected(supers[0], supers[1]) {
			return
		}
		s.trial++
		for k := range supers {
			for _, sp := range supers[k] {
				s.marked[k][t.Root(sp)] = s.trial
			}
		}
		for i, sp := range backhaul {
			r := t.Root(sp)
			for k := range s.on {
				s.on[k][i] = landOn[k][i] || s.marked[k][r] == s.trial
			}
		}
		for c, j := range cs.joins {
			if (s.on[0][j[0]] || s.on[0][j[1]]) && (s.on[1][j[0]] || s.on[1][j[1]]) {
				s.counts[c]++
			}
		}
	})
	if err != nil {
		return err
	}
	for c, j := range cs.joins {
		bridged := 0
		for _, s := range slots {
			bridged += s.counts[c]
		}
		factor := cs.cands[c].SurvivalProb
		for _, e := range j {
			if landOn[0][e] && landOn[1][e] {
				factor = 1
			}
		}
		cs.cands[c].Benefit = factor * (float64(bridged) / float64(trials))
	}
	return nil
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
