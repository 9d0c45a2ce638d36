// Package core is the paper's primary contribution rebuilt as a library:
// an analyzer that combines the topology datasets, the repeater failure
// model family, and Monte Carlo simulation into the resilience results of
// the evaluation — network-level failure sweeps (Figs 6-8) and the
// country-scale connectivity analysis (§4.3.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
)

// Analyzer runs resilience analyses over a generated world.
type Analyzer struct {
	World *dataset.World
}

// NewAnalyzer wraps a world.
func NewAnalyzer(w *dataset.World) (*Analyzer, error) {
	if w == nil {
		return nil, errors.New("core: nil world")
	}
	return &Analyzer{World: w}, nil
}

// Target selects a set of nodes in the submarine network: either a country
// code ("us", "sg"), a region ("region:europe"), or a named city prefix
// ("city:shanghai"). The paper's country analysis uses all three scopes
// (countries, continents, key cities).
type Target string

// Errors returned by target resolution.
var ErrEmptyTarget = errors.New("core: target matches no nodes")

// Match returns the target's per-node membership test, the one target
// grammar: a region target holds the located nodes of its region, a city
// target the nodes whose name ("<cc>-<city>-<n>") contains "-<city>-", and
// any other target the nodes of that country code. Resolve applies it to a
// network's nodes; the partition layer also applies it to the landings a
// candidate cable would add.
func (t Target) Match() func(*topology.Node) bool {
	s := string(t)
	switch {
	case strings.HasPrefix(s, "region:"):
		want := geo.Region(strings.TrimPrefix(s, "region:"))
		return func(nd *topology.Node) bool { return nd.HasCoord && geo.RegionOf(nd.Coord) == want }
	case strings.HasPrefix(s, "city:"):
		part := "-" + strings.TrimPrefix(s, "city:") + "-"
		return func(nd *topology.Node) bool { return strings.Contains(nd.Name, part) }
	default:
		return func(nd *topology.Node) bool { return nd.Country == s }
	}
}

// Resolve returns the node indices of a target in net; a target that
// matches no node is an ErrEmptyTarget.
func Resolve(net *topology.Network, t Target) ([]int, error) {
	has := t.Match()
	var out []int
	for i := range net.Nodes {
		if has(&net.Nodes[i]) {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrEmptyTarget, t)
	}
	return out, nil
}

// Connectivity is the Monte Carlo estimate of one target pair staying
// connected through the submarine network.
type Connectivity struct {
	From, To Target
	// SurvivalProb is the fraction of trials in which at least one path
	// connected the two node sets.
	SurvivalProb float64
	// Trials is the sample size.
	Trials int
}

// PairConnectivity estimates the probability that from and to remain
// connected in the submarine network under the model at the given spacing.
// The trial loop is sim.PairSurvival asked about one pair.
func (a *Analyzer) PairConnectivity(ctx context.Context, m failure.Model, spacingKm float64, trials int, seed uint64, from, to Target) (Connectivity, error) {
	if trials <= 0 {
		return Connectivity{}, errors.New("core: trials must be positive")
	}
	net := a.World.Submarine
	fromNodes, err := Resolve(net, from)
	if err != nil {
		return Connectivity{}, err
	}
	toNodes, err := Resolve(net, to)
	if err != nil {
		return Connectivity{}, err
	}
	plan, err := failure.Compile(net, m, spacingKm)
	if err != nil {
		return Connectivity{}, err
	}
	probs, err := sim.PairSurvival(ctx, plan, trials, seed, 1, []sim.Pair{{From: nodeIDs(fromNodes), To: nodeIDs(toNodes)}})
	if err != nil {
		return Connectivity{}, err
	}
	return Connectivity{From: from, To: to, SurvivalProb: probs[0], Trials: trials}, nil
}

func nodeIDs(xs []int) []graph.NodeID {
	out := make([]graph.NodeID, len(xs))
	for i, x := range xs {
		out[i] = graph.NodeID(x)
	}
	return out
}

// CableFate describes one cable touching a target and its death chance.
type CableFate struct {
	Name      string
	LengthKm  float64
	Band      geo.Band
	DeathProb float64
}

// CountryReport is the §4.3.4-style per-country view.
type CountryReport struct {
	Target Target
	Model  string
	// Cables lists every touching cable with its analytic death
	// probability, most endangered first.
	Cables []CableFate
	// ExpectedSurvivors is the expected number of surviving cables.
	ExpectedSurvivors float64
	// IsolationProb is the probability that every touching cable dies
	// (assuming independence), the paper's "loses all its long-distance
	// connectivity" event.
	IsolationProb float64
	// Partners estimates connectivity survival to selected partners.
	Partners []Connectivity
}

// CountryCase is one row of the country analysis: a target and the
// partners whose connectivity to it is estimated.
type CountryCase struct {
	Target   Target
	Partners []Target
}

// CountryCases is a set of country cases with every distinct target
// resolved once against the submarine network, ready to be reported under
// any number of compiled plans.
type CountryCases struct {
	net   *topology.Network
	cases []CountryCase
	nodes map[Target][]int
}

// ResolveCountryCases resolves every target and partner of cases once.
func (a *Analyzer) ResolveCountryCases(cases []CountryCase) (*CountryCases, error) {
	cs := &CountryCases{net: a.World.Submarine, cases: cases, nodes: map[Target][]int{}}
	for _, c := range cases {
		for _, t := range append([]Target{c.Target}, c.Partners...) {
			if _, ok := cs.nodes[t]; ok {
				continue
			}
			nodes, err := Resolve(cs.net, t)
			if err != nil {
				return nil, err
			}
			cs.nodes[t] = nodes
		}
	}
	return cs, nil
}

// Reports builds one CountryReport per case under plan, which must be
// compiled for the submarine network. Each cable's death probability is
// read from the plan, and every partner pair of every case is answered
// from one shared trial set (sim.PairSurvival over trials trials of seed,
// spread over the workers budget, 0 meaning GOMAXPROCS), so the reports
// do not depend on the budget.
func (cs *CountryCases) Reports(ctx context.Context, plan *failure.Plan, trials int, seed uint64, workers int) ([]*CountryReport, error) {
	net := cs.net
	if plan.Network() != net {
		return nil, errors.New("core: plan compiled for a different network")
	}
	reps := make([]*CountryReport, len(cs.cases))
	var pairs []sim.Pair
	for i, c := range cs.cases {
		nodes := cs.nodes[c.Target]
		rep := &CountryReport{Target: c.Target, Model: plan.ModelName(), IsolationProb: 1}
		for _, ci := range net.CablesTouching(nodes) {
			p := plan.DeathProb(ci)
			band, _ := net.CableBand(ci)
			rep.Cables = append(rep.Cables, CableFate{
				Name:      net.Cables[ci].Name,
				LengthKm:  net.Cables[ci].LengthKm(),
				Band:      band,
				DeathProb: p,
			})
			rep.ExpectedSurvivors += 1 - p
			rep.IsolationProb *= p
		}
		sort.Slice(rep.Cables, func(i, j int) bool { return rep.Cables[i].DeathProb > rep.Cables[j].DeathProb })
		for _, partner := range c.Partners {
			pairs = append(pairs, sim.Pair{From: nodeIDs(nodes), To: nodeIDs(cs.nodes[partner])})
		}
		reps[i] = rep
	}
	if len(pairs) == 0 {
		return reps, nil
	}
	if trials <= 0 {
		return nil, errors.New("core: trials must be positive")
	}
	probs, err := sim.PairSurvival(ctx, plan, trials, seed, workers, pairs)
	if err != nil {
		return nil, err
	}
	for i, c := range cs.cases {
		for _, partner := range c.Partners {
			reps[i].Partners = append(reps[i].Partners, Connectivity{
				From: c.Target, To: partner, SurvivalProb: probs[0], Trials: trials,
			})
			probs = probs[1:]
		}
	}
	return reps, nil
}

// CountryAnalysis builds a CountryReport for a target under a model: the
// one-case call of ResolveCountryCases and Reports. partners may be nil.
func (a *Analyzer) CountryAnalysis(ctx context.Context, m failure.Model, spacingKm float64, trials int, seed uint64, target Target, partners []Target) (*CountryReport, error) {
	cs, err := a.ResolveCountryCases([]CountryCase{{Target: target, Partners: partners}})
	if err != nil {
		return nil, err
	}
	plan, err := failure.Compile(a.World.Submarine, m, spacingKm)
	if err != nil {
		return nil, err
	}
	reps, err := cs.Reports(ctx, plan, trials, seed, 1)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// SurvivingCables lists the cables of a target expected to survive (death
// probability below 0.5), most robust first.
func (r *CountryReport) SurvivingCables() []CableFate {
	var out []CableFate
	for _, c := range r.Cables {
		if c.DeathProb < 0.5 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeathProb < out[j].DeathProb })
	return out
}

// DirectLink describes one cable that directly lands in both target sets.
type DirectLink struct {
	Name      string
	DeathProb float64
}

// DirectCableSurvival is the paper's §4.3.4 metric: of the cables landing
// in both from and to, the probability that at least one survives
// (assuming independent cable deaths). This is direct connectivity — no
// transit through third countries, which PairConnectivity covers.
type DirectCableSurvival struct {
	From, To Target
	Links    []DirectLink
	// AllDeadProb is the probability every direct cable dies ("US-Europe
	// connectivity is lost with a probability of 1.0").
	AllDeadProb float64
}

// DirectSurvival computes the direct-cable metric between two targets.
func (a *Analyzer) DirectSurvival(m failure.Model, spacingKm float64, from, to Target) (DirectCableSurvival, error) {
	net := a.World.Submarine
	fromNodes, err := Resolve(net, from)
	if err != nil {
		return DirectCableSurvival{}, err
	}
	toNodes, err := Resolve(net, to)
	if err != nil {
		return DirectCableSurvival{}, err
	}
	inFrom := toSet(fromNodes)
	inTo := toSet(toNodes)
	out := DirectCableSurvival{From: from, To: to, AllDeadProb: 1}
	for ci, c := range net.Cables {
		touchesFrom, touchesTo := false, false
		for _, s := range c.Segments {
			if inFrom[s.A] || inFrom[s.B] {
				touchesFrom = true
			}
			if inTo[s.A] || inTo[s.B] {
				touchesTo = true
			}
		}
		if !touchesFrom || !touchesTo {
			continue
		}
		p, err := failure.CableDeathProb(net, m, spacingKm, ci)
		if err != nil {
			return DirectCableSurvival{}, err
		}
		out.Links = append(out.Links, DirectLink{Name: c.Name, DeathProb: p})
		out.AllDeadProb *= p
	}
	if len(out.Links) == 0 {
		out.AllDeadProb = 1 // no direct cable: direct connectivity is already lost
	}
	sort.Slice(out.Links, func(i, j int) bool { return out.Links[i].DeathProb < out.Links[j].DeathProb })
	return out, nil
}

func toSet(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// CriticalCables returns the names of submarine cables whose individual
// loss disconnects part of the network — the single-cable SPOFs the §5.1
// design guidance wants eliminated. Sorted by cable length, longest (most
// GIC-exposed) first.
func (a *Analyzer) CriticalCables(limit int) []string {
	net := a.World.Submarine
	crit := net.CriticalCables()
	sort.Slice(crit, func(i, j int) bool {
		return net.Cables[crit[i]].LengthKm() > net.Cables[crit[j]].LengthKm()
	})
	if limit > 0 && len(crit) > limit {
		crit = crit[:limit]
	}
	names := make([]string, len(crit))
	for i, ci := range crit {
		names[i] = net.Cables[ci].Name
	}
	return names
}

// HubCities returns the submarine network's articulation landing points —
// single points of failure whose loss fragments the network. Used by the
// topology-design guidance of §5.1.
func (a *Analyzer) HubCities(limit int) []string {
	net := a.World.Submarine
	g := net.Graph()
	aps := g.ArticulationPoints()
	names := make([]string, 0, len(aps))
	for _, n := range aps {
		names = append(names, net.Nodes[int(n)].Name)
	}
	sort.Strings(names)
	if limit > 0 && len(names) > limit {
		names = names[:limit]
	}
	return names
}
