// Package grid implements the §5.5 extension: coupling between power grids
// and the Internet during a solar superstorm. Landing stations draw
// utility power; when a regional grid collapses (transformer damage from
// the same GIC), stations without adequate backup go dark and every cable
// landing there is unusable even if its repeaters survived. The package
// quantifies how much grid coupling amplifies Internet failures.
package grid

import (
	"errors"
	"fmt"

	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/stats"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Region is one power-grid interconnection area. The paper notes the US
// alone has three: grids are regional, unlike the global Internet.
type Region struct {
	Name string
	// Area and Band scope the region: landing stations match on both.
	Area geo.Region
	Band geo.Band
	// FailProb is the probability the regional grid collapses during the
	// storm.
	FailProb float64
}

// Model is a set of grid regions plus station backup behaviour.
type Model struct {
	Regions []Region
	// BackupProb is the probability a landing station rides through a
	// grid collapse on generators/batteries for the storm's duration.
	BackupProb float64
}

// DefaultModel derives grid-region failure probabilities from the same
// latitude-band logic as the cable models: transformers are the canonical
// GIC casualty (§2.2: Quebec 1989), so a band's grid is at least as
// exposed as its repeaters. probs is indexed by geo.Band, e.g. the S1
// vector for a Carrington-class event.
func DefaultModel(probs [geo.NumBands]float64) Model {
	m := Model{BackupProb: 0.6}
	// Remote island stations classify as RegionOcean; they run on island
	// utilities that are just as GIC-exposed, so they get regions too.
	areas := append(geo.Regions(), geo.RegionOcean)
	for _, area := range areas {
		for band := geo.Band(0); band < geo.NumBands; band++ {
			m.Regions = append(m.Regions, Region{
				Name:     fmt.Sprintf("%s/%s", area, band),
				Area:     area,
				Band:     band,
				FailProb: probs[band],
			})
		}
	}
	return m
}

// Validate reports model errors.
func (m Model) Validate() error {
	if len(m.Regions) == 0 {
		return errors.New("grid: no regions")
	}
	if m.BackupProb < 0 || m.BackupProb > 1 {
		return errors.New("grid: backup probability out of [0,1]")
	}
	for _, r := range m.Regions {
		if r.FailProb < 0 || r.FailProb > 1 {
			return fmt.Errorf("grid: region %q failure probability %v", r.Name, r.FailProb)
		}
	}
	return nil
}

// regionOf maps a landing station to its grid region index, or -1 for
// stations with no coordinates (never cascaded).
func (m Model) regionOf(nd topology.Node) int {
	if !nd.HasCoord {
		return -1
	}
	area := geo.RegionOf(nd.Coord)
	band := geo.BandOfCoord(nd.Coord)
	for i, r := range m.Regions {
		if r.Area == area && r.Band == band {
			return i
		}
	}
	return -1
}

// Cascade samples one grid realisation and extends a dead-cable set: a
// cable also dies if any of its landing stations sits in a collapsed grid
// region and has no working backup. The input set is not modified; the
// extended copy is returned along with the count of stations that went
// dark. A network or set that topology.ValidateDead refuses is an error.
func (m Model) Cascade(net *topology.Network, cableDead graph.Bitset, rng *xrand.Source) (graph.Bitset, int, error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	if err := net.ValidateDead(cableDead); err != nil {
		return nil, 0, fmt.Errorf("grid: %w", err)
	}
	out, dark := m.cascade(net, cableDead, rng)
	return out, dark, nil
}

// cascade is Cascade on a model and set already checked.
func (m Model) cascade(net *topology.Network, cableDead graph.Bitset, rng *xrand.Source) (graph.Bitset, int) {
	regionDown := make([]bool, len(m.Regions))
	for i, r := range m.Regions {
		regionDown[i] = rng.Bool(r.FailProb)
	}
	dark := make([]bool, len(net.Nodes))
	darkCount := 0
	for i, nd := range net.Nodes {
		ri := m.regionOf(nd)
		if ri < 0 || !regionDown[ri] {
			continue
		}
		if rng.Bool(m.BackupProb) {
			continue // generators carried the station
		}
		dark[i] = true
		darkCount++
	}
	out := graph.NewBitset(len(net.Cables))
	copy(out, cableDead)
	for ci, c := range net.Cables {
		if out.Get(ci) {
			continue
		}
		for _, s := range c.Segments {
			if dark[s.A] || dark[s.B] {
				out.Set(ci)
				break
			}
		}
	}
	return out, darkCount
}

// Amplification compares Internet failures with and without grid coupling.
type Amplification struct {
	// CableFracAlone / CableFracCoupled are mean dead-cable fractions.
	CableFracAlone   stats.Running
	CableFracCoupled stats.Running
	// StationsDark is the mean count of unpowered landing stations.
	StationsDark stats.Running
}

// Factor returns coupled/alone mean cable failure (>= 1 when coupling
// makes things worse). Returns 1 when nothing failed in either mode.
func (a *Amplification) Factor() float64 {
	if a.CableFracAlone.Mean() == 0 {
		if a.CableFracCoupled.Mean() == 0 {
			return 1
		}
		return 1e9 // failures appear only through coupling
	}
	return a.CableFracCoupled.Mean() / a.CableFracAlone.Mean()
}

// Compare runs trials of the repeater model alone vs coupled with the
// grid model. Trial ti draws its cable deaths from root.Split(ti) with
// failure.Plan.SampleDense, and the grid draws continue that stream.
func Compare(net *topology.Network, fm failure.Model, gm Model, spacingKm float64, trials int, seed uint64) (*Amplification, error) {
	if trials <= 0 {
		return nil, errors.New("grid: trials must be positive")
	}
	if err := gm.Validate(); err != nil {
		return nil, err
	}
	if err := net.ValidateDead(nil); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	plan, err := failure.Compile(net, fm, spacingKm)
	if err != nil {
		return nil, err
	}
	root := xrand.New(seed)
	amp := &Amplification{}
	dead := plan.NewDead()
	for ti := 0; ti < trials; ti++ {
		rng := root.Split(uint64(ti))
		plan.SampleDense(dead, rng)
		amp.CableFracAlone.Add(plan.Evaluate(dead).CableFrac)
		coupled, dark := gm.cascade(net, dead, rng)
		amp.CableFracCoupled.Add(plan.Evaluate(coupled).CableFrac)
		amp.StationsDark.Add(float64(dark))
	}
	return amp, nil
}
