// Package shutdown implements the §5.2 extension: using the 13-hour to
// 3-day CME lead time to plan which cables to power down before impact.
//
// Physics the plan rests on (§5.2): GIC flows through a powered-off cable
// too, because the current enters through the grounded conductor — powering
// off only shaves the superimposed operating current, a modest derate that
// "can help only when the threat is moderate". The planner therefore
// computes, per cable, the repeater failure probability powered-on vs
// powered-off and spends the limited lead time powering off the cables
// where the derate buys the most expected survival, subject to an
// operational budget (crews can only execute so many controlled shutdowns
// per hour).
package shutdown

import (
	"errors"
	"sort"

	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/gic"
	"gicnet/internal/topology"
)

// Options tunes the planner.
type Options struct {
	// SpacingKm is the inter-repeater distance.
	SpacingKm float64
	// PowerOffDerate scales the induced current when a cable is powered
	// off (< 1; the operating current no longer superimposes). The paper
	// calls the reduction "slight": default 0.85.
	PowerOffDerate float64
	// ShutdownsPerHour is the operational budget.
	ShutdownsPerHour float64
	// MinGain is the minimum survival-probability improvement for a
	// power-off to be worth the operational risk.
	MinGain float64
	// Conductor and Tolerance describe the cable plant.
	Conductor gic.Conductor
	Tolerance gic.RepeaterTolerance
}

// DefaultOptions returns sensible defaults.
func DefaultOptions() Options {
	return Options{
		SpacingKm:        150,
		PowerOffDerate:   0.85,
		ShutdownsPerHour: 12,
		MinGain:          0.01,
		Conductor:        gic.DefaultSubmarineConductor(),
		Tolerance:        gic.DefaultRepeaterTolerance(),
	}
}

// Action is the planned handling of one cable.
type Action struct {
	Cable string
	// CableIndex indexes the network's cable list; names need not be
	// unique.
	CableIndex int
	// PowerOff is true if the plan powers the cable down pre-impact.
	PowerOff bool
	// DeathOn / DeathOff are the cable death probabilities in each state.
	DeathOn, DeathOff float64
	// Gain is DeathOn - DeathOff.
	Gain float64
}

// Plan is a pre-impact shutdown schedule.
type Plan struct {
	Storm string
	// LeadTimeHours is the warning time available.
	LeadTimeHours float64
	// Budget is how many shutdowns the lead time allows.
	Budget int
	// Actions covers every cable, power-offs first (by gain), then the
	// keep-on remainder.
	Actions []Action
	// ExpectedSurvivorsUnplanned / ExpectedSurvivorsPlanned are expected
	// surviving cable counts without and with the plan.
	ExpectedSurvivorsUnplanned float64
	ExpectedSurvivorsPlanned   float64
}

// PowerOffCount returns the number of planned power-offs.
func (p *Plan) PowerOffCount() int {
	n := 0
	for _, a := range p.Actions {
		if a.PowerOff {
			n++
		}
	}
	return n
}

// stormModel returns the per-cable death probability under a storm with
// the given current derate (1 = powered on).
func stormModel(net *topology.Network, s gic.Storm, opts Options, derate float64, ci int) (float64, error) {
	reps := net.Cables[ci].RepeaterCount(opts.SpacingKm)
	if reps == 0 {
		return 0, nil
	}
	maxLat, ok := net.MaxAbsLatEndpoint(ci)
	if !ok {
		maxLat = geo.MidBandCut // coordinate-free: assume mid-band risk
	}
	cur, err := gic.InducedCurrent(s, opts.Conductor, maxLat, opts.Conductor.GroundSpacingKm)
	if err != nil {
		return 0, err
	}
	p := opts.Tolerance.FailureProbability(cur * derate)
	m := failure.Uniform{P: p}
	return failure.CableDeathProb(net, m, opts.SpacingKm, ci)
}

// PlanShutdown builds the schedule for a forecast storm. The lead time is
// taken from the storm's transit time.
func PlanShutdown(net *topology.Network, s gic.Storm, opts Options) (*Plan, error) {
	if net == nil {
		return nil, errors.New("shutdown: nil network")
	}
	// The storm model indexes nodes by segment endpoint: refuse a
	// network whose segments dangle before it does.
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := failure.CheckSpacing(opts.SpacingKm); err != nil {
		return nil, err
	}
	if opts.PowerOffDerate <= 0 || opts.PowerOffDerate > 1 {
		return nil, errors.New("shutdown: derate must be in (0, 1]")
	}
	lead := s.TravelTime.Hours()
	budget := int(lead * opts.ShutdownsPerHour)

	actions := make([]Action, 0, len(net.Cables))
	for ci := range net.Cables {
		on, err := stormModel(net, s, opts, 1, ci)
		if err != nil {
			return nil, err
		}
		off, err := stormModel(net, s, opts, opts.PowerOffDerate, ci)
		if err != nil {
			return nil, err
		}
		actions = append(actions, Action{
			Cable:      net.Cables[ci].Name,
			CableIndex: ci,
			DeathOn:    on,
			DeathOff:   off,
			Gain:       on - off,
		})
	}
	sort.Slice(actions, func(i, j int) bool { return actions[i].Gain > actions[j].Gain })

	plan := &Plan{Storm: s.Name, LeadTimeHours: lead, Budget: budget}
	for i := range actions {
		if i < budget && actions[i].Gain >= opts.MinGain {
			actions[i].PowerOff = true
		}
		death := actions[i].DeathOn
		if actions[i].PowerOff {
			death = actions[i].DeathOff
		}
		plan.ExpectedSurvivorsUnplanned += 1 - actions[i].DeathOn
		plan.ExpectedSurvivorsPlanned += 1 - death
	}
	plan.Actions = actions
	return plan, nil
}

// Improvement returns the expected number of cables saved by the plan.
func (p *Plan) Improvement() float64 {
	return p.ExpectedSurvivorsPlanned - p.ExpectedSurvivorsUnplanned
}
