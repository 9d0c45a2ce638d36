// Package failure implements the paper's repeater failure model family and
// the propagation rules from repeater death to cable and node death.
//
// The paper's rules (§4.3.1):
//
//   - Repeaters sit at constant intervals along each cable; every repeater
//     on a cable shares one failure probability.
//   - A cable dies if at least one of its repeaters dies.
//   - A node is unreachable when all of its cables have died.
//
// Models supported: uniform probability (Figs 6-7), latitude-tiered S1/S2
// (Fig 8), physically derived probabilities from a gic.Storm scenario, and
// arbitrary custom models.
package failure

import (
	"errors"
	"fmt"
	"math"

	"gicnet/internal/geo"
	"gicnet/internal/gic"
	"gicnet/internal/topology"
)

// Model assigns a per-repeater failure probability to each cable of a
// network. Implementations must be pure: same inputs, same probability.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// RepeaterProb returns the per-repeater failure probability for cable
	// ci of net, in [0, 1].
	RepeaterProb(net *topology.Network, ci int) float64
}

// Uniform gives every repeater the same failure probability (§4.3.2).
type Uniform struct {
	P float64
}

// Name implements Model.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(p=%g)", u.P) }

// RepeaterProb implements Model.
func (u Uniform) RepeaterProb(*topology.Network, int) float64 { return u.P }

// LatitudeTiered assigns a probability per latitude risk band of the
// cable's highest-latitude endpoint (§4.3.3). Cables in networks without
// coordinates fall back to the low band, matching the paper's choice to
// skip non-uniform analysis for the coordinate-free ITU dataset.
type LatitudeTiered struct {
	Label string
	// Probs is indexed by geo.Band: [low, mid, high].
	Probs [geo.NumBands]float64
}

// Name implements Model.
func (l LatitudeTiered) Name() string {
	if l.Label != "" {
		return l.Label
	}
	return fmt.Sprintf("tiered(%g,%g,%g)", l.Probs[geo.BandHigh], l.Probs[geo.BandMid], l.Probs[geo.BandLow])
}

// RepeaterProb implements Model.
func (l LatitudeTiered) RepeaterProb(net *topology.Network, ci int) float64 {
	band, ok := net.CableBand(ci)
	if !ok {
		band = geo.BandLow
	}
	return l.Probs[band]
}

// PathTiered is like LatitudeTiered but bands each cable by the highest
// absolute latitude reached along its great-circle path rather than by
// its highest endpoint. Transatlantic routes between ~40-50N endpoints
// arc into the >60 auroral band, so PathTiered is the physically stricter
// reading; comparing it against the paper's endpoint rule is the
// ablation-banding experiment.
type PathTiered struct {
	Label string
	Probs [geo.NumBands]float64
}

// Name implements Model.
func (p PathTiered) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("path-tiered(%g,%g,%g)", p.Probs[geo.BandHigh], p.Probs[geo.BandMid], p.Probs[geo.BandLow])
}

// RepeaterProb implements Model.
func (p PathTiered) RepeaterProb(net *topology.Network, ci int) float64 {
	band, ok := net.CableBandByPath(ci)
	if !ok {
		band = geo.BandLow
	}
	return p.Probs[band]
}

// S1Path is the S1 state under path banding.
func S1Path() PathTiered {
	return PathTiered{Label: "S1-path", Probs: S1().Probs}
}

// S1 is the paper's high-failure state: per-repeater probabilities
// [1, 0.1, 0.01] for bands (>60, 40-60, <40).
func S1() LatitudeTiered {
	return LatitudeTiered{Label: "S1(high)", Probs: [geo.NumBands]float64{geo.BandLow: 0.01, geo.BandMid: 0.1, geo.BandHigh: 1}}
}

// S2 is the paper's low-failure state: [0.1, 0.01, 0.001].
func S2() LatitudeTiered {
	return LatitudeTiered{Label: "S2(low)", Probs: [geo.NumBands]float64{geo.BandLow: 0.001, geo.BandMid: 0.01, geo.BandHigh: 0.1}}
}

// FromStorm derives a latitude-tiered model from a physical storm scenario
// using the GIC dose-response chain.
func FromStorm(s gic.Storm, c gic.Conductor, rt gic.RepeaterTolerance) (LatitudeTiered, error) {
	probs, err := gic.BandProbabilities(s, c, rt)
	if err != nil {
		return LatitudeTiered{}, err
	}
	return LatitudeTiered{Label: "storm:" + s.Name, Probs: probs}, nil
}

// Func adapts a function to the Model interface.
type Func struct {
	Label string
	F     func(net *topology.Network, ci int) float64
}

// Name implements Model.
func (f Func) Name() string { return f.Label }

// RepeaterProb implements Model.
func (f Func) RepeaterProb(net *topology.Network, ci int) float64 { return f.F(net, ci) }

// MinSpacingKm is the smallest inter-repeater spacing the model accepts.
// The paper uses 50-150 km; at 1 km the longest cable already carries
// ~39,000 repeaters, which keeps per-repeater loops such as
// recovery.FaultsFrom bounded.
const MinSpacingKm = 1

// ErrBadSpacing reports an inter-repeater spacing that CheckSpacing refuses.
var ErrBadSpacing = errors.New("failure: inter-repeater spacing must be finite and at least 1 km")

// CheckSpacing is the spacing check shared by every entry point that takes
// an inter-repeater distance: it returns ErrBadSpacing for NaN, infinite
// and sub-MinSpacingKm spacings.
func CheckSpacing(spacingKm float64) error {
	if !(spacingKm >= MinSpacingKm) || math.IsInf(spacingKm, 1) {
		return ErrBadSpacing
	}
	return nil
}

// CableDeathProb returns the exact probability that cable ci dies:
// 1 - (1-p)^r for r repeaters of failure probability p. Cables with no
// repeaters never die.
func CableDeathProb(net *topology.Network, m Model, spacingKm float64, ci int) (float64, error) {
	if err := CheckSpacing(spacingKm); err != nil {
		return 0, err
	}
	return cableDeathProb(net, m, ci, net.Cables[ci].RepeaterCount(spacingKm)), nil
}

// cableDeathProb is CableDeathProb for cable ci carrying r repeaters at an
// already checked spacing. CompileInto calls it with counts it keeps, so
// the two cannot drift apart.
func cableDeathProb(net *topology.Network, m Model, ci, r int) float64 {
	if r == 0 {
		return 0
	}
	p := m.RepeaterProb(net, ci)
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return 1 - math.Pow(1-p, float64(r))
}

// Outcome summarises one realisation of failures on a network.
type Outcome struct {
	// CablesFailed is the number of dead cables.
	CablesFailed int
	// CableFrac is CablesFailed over the cable count.
	CableFrac float64
	// NodesUnreachable is the number of nodes with all cables dead.
	NodesUnreachable int
	// NodeFrac is NodesUnreachable over the count of nodes that have at
	// least one cable.
	NodeFrac float64
}

// ExpectedCableFrac returns the exact expected fraction of dead cables
// (mean of CableDeathProb over cables) — a fast analytic cross-check for
// the Monte Carlo cable series.
func ExpectedCableFrac(net *topology.Network, m Model, spacingKm float64) (float64, error) {
	if len(net.Cables) == 0 {
		return 0, nil
	}
	total := 0.0
	for ci := range net.Cables {
		p, err := CableDeathProb(net, m, spacingKm, ci)
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total / float64(len(net.Cables)), nil
}
