// Package scenario runs an end-to-end solar superstorm timeline over the
// whole model stack: forecast and lead-time shutdown planning (§5.2),
// GIC-driven cable failures (§3-4), power-grid cascade (§5.5), post-impact
// partitioning (§5.3), traffic re-routing (§5.5), satellite exposure
// (§3.3), and the months-long repair campaign (§3.2.2) — one integrated
// report per storm.
package scenario

import (
	"errors"
	"fmt"
	"io"

	"gicnet/internal/dataset"
	"gicnet/internal/econ"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/gic"
	"gicnet/internal/graph"
	"gicnet/internal/grid"
	"gicnet/internal/partition"
	"gicnet/internal/recovery"
	"gicnet/internal/report"
	"gicnet/internal/routing"
	"gicnet/internal/satellite"
	"gicnet/internal/shutdown"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Config describes one scenario run.
type Config struct {
	// Storm is the forecast CME.
	Storm gic.Storm
	// SpacingKm is the inter-repeater distance.
	SpacingKm float64
	// Seed drives every random draw in the scenario.
	Seed uint64
	// ApplyShutdown runs the §5.2 planner during the lead time and uses
	// the powered-off failure probabilities for planned cables.
	ApplyShutdown bool
	// GridCoupling cascades power-grid collapse into landing stations.
	GridCoupling bool
	// FaultSeverity is the per-repeater damage sampling rate for the
	// repair backlog.
	FaultSeverity float64
	// Fleet repairs the damage; nil uses the default fleet.
	Fleet []recovery.Ship
}

// DefaultConfig returns a full-stack Carrington run.
func DefaultConfig() Config {
	return Config{
		Storm:         gic.Carrington,
		SpacingKm:     150,
		Seed:          dataset.DefaultSeed,
		ApplyShutdown: true,
		GridCoupling:  true,
		FaultSeverity: 0.1,
	}
}

// Report is the integrated scenario outcome.
type Report struct {
	Storm         string
	LeadTimeHours float64
	// Plan is the shutdown schedule (nil if not applied).
	Plan *shutdown.Plan
	// CablesDead / NodesIsolated summarise the post-impact state
	// (including grid cascade if enabled).
	CablesDead    int
	NodesIsolated int
	// StationsDark counts landing stations lost to the grid cascade.
	StationsDark int
	// Fragmentation is the post-impact partition structure.
	Fragmentation *partition.Fragmentation
	// TrafficStranded is the share of inter-region demand left
	// unroutable; TopShifts lists the biggest load gainers.
	TrafficStranded float64
	TopShifts       []routing.Shift
	// Satellite is the LEO exposure assessment.
	Satellite *satellite.Exposure
	// Recovery is the repair schedule; RestoredAt gives the milestone
	// days.
	Recovery *recovery.Schedule
	// FaultCount is the repair backlog size.
	FaultCount int
	// Economic is the §1-style cost estimate for the outage.
	Economic *econ.Estimate
}

// Run executes the scenario on a world.
func Run(w *dataset.World, cfg Config) (*Report, error) {
	if w == nil {
		return nil, errors.New("scenario: nil world")
	}
	if err := failure.CheckSpacing(cfg.SpacingKm); err != nil {
		return nil, err
	}
	if cfg.FaultSeverity <= 0 || cfg.FaultSeverity > 1 {
		return nil, errors.New("scenario: fault severity must be in (0,1]")
	}
	net := w.Submarine
	rng := xrand.New(cfg.Seed)
	rep := &Report{
		Storm:         cfg.Storm.Name,
		LeadTimeHours: cfg.Storm.TravelTime.Hours(),
	}

	// Phase 1 — lead time: shutdown planning.
	opts := shutdown.DefaultOptions()
	opts.SpacingKm = cfg.SpacingKm
	plan, err := shutdown.PlanShutdown(net, cfg.Storm, opts)
	if err != nil {
		return nil, err
	}
	if cfg.ApplyShutdown {
		rep.Plan = plan
	}

	// Phase 2 — impact: sample cable deaths using the plan's per-cable
	// probabilities (powered-off where planned), one draw per action in
	// plan order.
	dead := graph.NewBitset(len(net.Cables))
	for _, a := range plan.Actions {
		p := a.DeathOn
		if cfg.ApplyShutdown && a.PowerOff {
			p = a.DeathOff
		}
		if rng.Bool(p) {
			dead.Set(a.CableIndex)
		}
	}

	// Phase 3 — grid cascade.
	if cfg.GridCoupling {
		probs, err := gic.BandProbabilities(cfg.Storm, gic.DefaultLandConductor(), gic.DefaultRepeaterTolerance())
		if err != nil {
			return nil, err
		}
		gm := grid.DefaultModel(probs)
		coupled, darkCount, err := gm.Cascade(net, dead, rng)
		if err != nil {
			return nil, err
		}
		dead = coupled
		rep.StationsDark = darkCount
	}
	rep.CablesDead = dead.Count()
	rep.NodesIsolated = len(net.UnreachableNodes(dead))

	// Phase 4 — partition structure.
	frag, err := partition.Analyze(net, dead)
	if err != nil {
		return nil, err
	}
	rep.Fragmentation = frag

	// Phase 5 — traffic re-routing.
	demands := routing.DefaultDemands()
	before, err := routing.Route(net, demands, nil)
	if err != nil {
		return nil, err
	}
	after, err := routing.Route(net, demands, dead)
	if err != nil {
		return nil, err
	}
	rep.TrafficStranded = after.StrandedFrac()
	shifts, err := routing.CompareLoads(net, before, after)
	if err != nil {
		return nil, err
	}
	if len(shifts) > 5 {
		shifts = shifts[:5]
	}
	rep.TopShifts = shifts

	// Phase 6 — satellites.
	sat, err := satellite.Assess(satellite.Starlink(), cfg.Storm)
	if err != nil {
		return nil, err
	}
	rep.Satellite = sat

	// Phase 7 — recovery campaign.
	faults, err := recovery.FaultsFrom(net, dead, cfg.SpacingKm, cfg.FaultSeverity, rng)
	if err != nil {
		return nil, err
	}
	rep.FaultCount = len(faults)
	fleet := cfg.Fleet
	if fleet == nil {
		fleet = recovery.DefaultFleet()
	}
	if len(faults) > 0 {
		sched, err := recovery.PlanRecovery(net, faults, fleet, recovery.DefaultOptions())
		if err != nil {
			return nil, err
		}
		rep.Recovery = sched
	}

	// Phase 8 — economic impact: per-region connectivity loss costed over
	// the 90%-restoration horizon.
	restore := 0.0
	if rep.Recovery != nil {
		restore = rep.Recovery.RestoredAt[0.9]
	}
	est, err := econ.FromScenario(regionLoss(net, dead), restore)
	if err != nil {
		return nil, err
	}
	rep.Economic = est
	return rep, nil
}

// regionLoss computes each region's share of landing points that lost all
// connectivity or were split from the region's dominant partition.
func regionLoss(net *topology.Network, dead graph.Bitset) map[geo.Region]float64 {
	labels, _ := net.Graph().Components(net.DeadEdgeBitsInto(nil, dead))
	iso := map[int]bool{}
	for _, n := range net.UnreachableNodes(dead) {
		iso[n] = true
	}
	// Per region: count nodes per component, find the dominant one.
	type tally struct {
		total int
		comps map[int]int
		isoN  int
	}
	byRegion := map[geo.Region]*tally{}
	for i, nd := range net.Nodes {
		if !nd.HasCoord {
			continue
		}
		r := geo.RegionOf(nd.Coord)
		tl := byRegion[r]
		if tl == nil {
			tl = &tally{comps: map[int]int{}}
			byRegion[r] = tl
		}
		tl.total++
		if iso[i] {
			tl.isoN++
			continue
		}
		tl.comps[labels[i]]++
	}
	out := map[geo.Region]float64{}
	for r, tl := range byRegion {
		dominant := 0
		for _, n := range tl.comps {
			if n > dominant {
				dominant = n
			}
		}
		if tl.total > 0 {
			out[r] = float64(tl.total-dominant) / float64(tl.total)
		}
	}
	return out
}

// Render writes the scenario report as text.
func (r *Report) Render(w io.Writer) error {
	t := report.NewTable(fmt.Sprintf("Scenario: %s", r.Storm), "phase", "result")
	t.AddRow("lead time", fmt.Sprintf("%.1f hours", r.LeadTimeHours))
	if r.Plan != nil {
		t.AddRow("shutdown plan", fmt.Sprintf("%d cables powered off, +%.1f expected survivors",
			r.Plan.PowerOffCount(), r.Plan.Improvement()))
	} else {
		t.AddRow("shutdown plan", "not applied")
	}
	t.AddRow("impact", fmt.Sprintf("%d cables dead, %d landing points isolated", r.CablesDead, r.NodesIsolated))
	t.AddRow("grid cascade", fmt.Sprintf("%d stations dark", r.StationsDark))
	t.AddRow("partitions", fmt.Sprintf("%d components, largest holds %s of survivors",
		r.Fragmentation.Components, report.Pct(r.Fragmentation.LargestFrac)))
	t.AddRow("traffic", fmt.Sprintf("%s of inter-region demand stranded", report.Pct(r.TrafficStranded)))
	for _, s := range r.TopShifts {
		t.AddRow("", fmt.Sprintf("load shift: %s %.3f -> %.3f", s.Cable, s.Before, s.After))
	}
	t.AddRow("satellites", fmt.Sprintf("%.0f expected electronics losses, %.1fx drag",
		r.Satellite.DamagedExpected, r.Satellite.DragMultiplier))
	if r.Recovery != nil {
		t.AddRow("repairs", fmt.Sprintf("%d campaigns, 90%% restored in %.0f days, full in %.0f days",
			r.FaultCount, r.Recovery.RestoredAt[0.9], r.Recovery.MakespanDays))
	} else {
		t.AddRow("repairs", "no damage")
	}
	// Region split detail.
	for _, region := range geo.Regions() {
		if n := r.Fragmentation.RegionSplit[region]; n > 1 {
			t.AddRow("", fmt.Sprintf("%s split into %d islands", region, n))
		}
	}
	if r.Economic != nil {
		t.AddRow("economic impact", fmt.Sprintf("$%.2fT over the restoration period",
			econ.Trillions(r.Economic.TotalUSD)))
		top := r.Economic.TopRegions()
		if len(top) > 3 {
			top = top[:3]
		}
		for _, region := range top {
			t.AddRow("", fmt.Sprintf("%s: $%.0fB", region, econ.Billions(r.Economic.ByRegion[region])))
		}
	}
	return t.Render(w)
}
