package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/grid"
	"gicnet/internal/partition"
	"gicnet/internal/recovery"
	"gicnet/internal/report"
	"gicnet/internal/resilience"
	"gicnet/internal/routing"
	"gicnet/internal/scenario"
	"gicnet/internal/sim"
	"gicnet/internal/solar"
	"gicnet/internal/xrand"
)

// ExtTrafficResult is the §5.5 load-shift experiment: kill the New York
// area cables and measure where demand goes.
type ExtTrafficResult struct {
	CablesKilled  int
	StrandedFrac  float64
	TopShifts     []routing.Shift
	OverloadCount int
}

// ExtTraffic runs the NY-failure load-shift experiment.
func ExtTraffic(w *dataset.World) (*ExtTrafficResult, error) {
	net := w.Submarine
	var nyNodes []int
	for i, nd := range net.Nodes {
		if strings.Contains(nd.Name, "new-york") || strings.Contains(nd.Name, "long-island") ||
			strings.Contains(nd.Name, "wall-nj") {
			nyNodes = append(nyNodes, i)
		}
	}
	dead := graph.NewBitset(len(net.Cables))
	for _, ci := range net.CablesTouching(nyNodes) {
		dead.Set(ci)
	}
	demands := routing.DefaultDemands()
	before, err := routing.Route(net, demands, nil)
	if err != nil {
		return nil, err
	}
	after, err := routing.Route(net, demands, dead)
	if err != nil {
		return nil, err
	}
	shifts, err := routing.CompareLoads(net, before, after)
	if err != nil {
		return nil, err
	}
	over := routing.OverloadedCables(shifts, 2)
	top := shifts
	if len(top) > 8 {
		top = top[:8]
	}
	return &ExtTrafficResult{
		CablesKilled:  dead.Count(),
		StrandedFrac:  after.StrandedFrac(),
		TopShifts:     top,
		OverloadCount: len(over),
	}, nil
}

// Render writes the traffic experiment table.
func (r *ExtTrafficResult) Render(w io.Writer) error {
	t := report.NewTable("Extension: NY failure traffic shift (§5.5)", "cable", "load-before", "load-after", "ratio")
	for _, s := range r.TopShifts {
		t.AddRow(s.Cable, fmt.Sprintf("%.4f", s.Before), fmt.Sprintf("%.4f", s.After), fmt.Sprintf("%.1fx", s.Ratio()))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "cables killed: %d, demand stranded: %s, cables >2x loaded: %d\n",
		r.CablesKilled, report.Pct(r.StrandedFrac), r.OverloadCount)
	return err
}

// ExtRecoveryResult is the §3.2.2 repair experiment.
type ExtRecoveryResult struct {
	Faults       int
	RestoredAt   map[float64]float64
	FleetSweep   map[int]float64 // fleet size -> days to 95%
	MakespanDays float64
}

// ExtRecovery runs the S1 repair-campaign experiment.
func ExtRecovery(w *dataset.World, cfg Config) (*ExtRecoveryResult, error) {
	net := w.Submarine
	plan, err := failure.Compile(net, failure.S1(), 150)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	dead := plan.NewDead()
	plan.SampleDense(dead, rng)
	faults, err := recovery.FaultsFrom(net, dead, 150, 0.1, rng)
	if err != nil {
		return nil, err
	}
	sched, err := recovery.PlanRecovery(net, faults, recovery.DefaultFleet(), recovery.DefaultOptions())
	if err != nil {
		return nil, err
	}
	sweep, err := recovery.FleetSizeSweep(net, faults, []int{5, 10, 20, 40}, recovery.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &ExtRecoveryResult{
		Faults:       len(faults),
		RestoredAt:   sched.RestoredAt,
		FleetSweep:   sweep,
		MakespanDays: sched.MakespanDays,
	}, nil
}

// golden pins the campaign; milestones are keyed by their fraction
// because encoding/json cannot encode float map keys.
func (r *ExtRecoveryResult) golden() any {
	restored := map[string]float64{}
	for m, days := range r.RestoredAt {
		restored[fmt.Sprint(m)] = days
	}
	return map[string]any{"faults": r.Faults, "restored_at_days": restored,
		"fleet_days_to_95": r.FleetSweep, "makespan_days": r.MakespanDays}
}

// Render writes the recovery experiment tables.
func (r *ExtRecoveryResult) Render(w io.Writer) error {
	t := report.NewTable("Extension: S1 repair campaign (§3.2.2)", "milestone", "days", "months")
	for _, m := range []float64{0.5, 0.9, 0.95, 1.0} {
		d := r.RestoredAt[m]
		t.AddRow(report.Pct(m), fmt.Sprintf("%.0f", d), fmt.Sprintf("%.1f", d/30))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	ft := report.NewTable("Fleet-size ablation: days to 95% restoration", "ships", "days")
	for _, n := range []int{5, 10, 20, 40} {
		ft.AddRow(fmt.Sprint(n), fmt.Sprintf("%.0f", r.FleetSweep[n]))
	}
	return ft.Render(w)
}

// ExtResilienceResult is the §5.4 placement experiment.
type ExtResilienceResult struct {
	Results []*resilience.Result
}

// ExtResilience ranks the hyperscaler placements under S1.
func ExtResilience(w *dataset.World, cfg Config) (*ExtResilienceResult, error) {
	rs, err := resilience.Rank(w,
		[]resilience.Placement{resilience.GooglePlacement(), resilience.FacebookPlacement()},
		failure.S1(), 150, cfg.Trials*4, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &ExtResilienceResult{Results: rs}, nil
}

// golden pins the placement table's means: stats.Running encodes as {}.
func (r *ExtResilienceResult) golden() any {
	var out []map[string]any
	for _, res := range r.Results {
		out = append(out, map[string]any{"placement": res.Placement, "mean_availability": res.Availability.Mean(),
			"worst_trial": res.WorstTrial, "partitions_served": res.PartitionsServed.Mean()})
	}
	return out
}

// Render writes the placement table.
func (r *ExtResilienceResult) Render(w io.Writer) error {
	t := report.NewTable("Extension: placement availability under S1 (§5.4)",
		"placement", "mean-availability", "worst-trial", "partitions-served")
	for _, res := range r.Results {
		t.AddRow(res.Placement,
			report.Pct(res.Availability.Mean()),
			report.Pct(res.WorstTrial),
			report.Pct(res.PartitionsServed.Mean()))
	}
	return t.Render(w)
}

// ExtGridResult is the §5.5 coupling experiment.
type ExtGridResult struct {
	Amp *grid.Amplification
}

// ExtGrid measures grid-coupling amplification under S2.
func ExtGrid(w *dataset.World, cfg Config) (*ExtGridResult, error) {
	gm := grid.DefaultModel(failure.S1().Probs)
	amp, err := grid.Compare(w.Submarine, failure.S2(), gm, 150, cfg.Trials*2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &ExtGridResult{Amp: amp}, nil
}

// golden pins the coupling table's means: stats.Running encodes as {}.
func (r *ExtGridResult) golden() any {
	return map[string]float64{"cable_frac_alone": r.Amp.CableFracAlone.Mean(),
		"cable_frac_coupled": r.Amp.CableFracCoupled.Mean(), "amplification": r.Amp.Factor(),
		"stations_dark": r.Amp.StationsDark.Mean()}
}

// Render writes the coupling table.
func (r *ExtGridResult) Render(w io.Writer) error {
	t := report.NewTable("Extension: power-grid coupling (§5.5)", "metric", "value")
	t.AddRow("cable failures, repeaters only", report.Pct(r.Amp.CableFracAlone.Mean()))
	t.AddRow("cable failures, grid-coupled", report.Pct(r.Amp.CableFracCoupled.Mean()))
	t.AddRow("amplification factor", fmt.Sprintf("%.2fx", r.Amp.Factor()))
	t.AddRow("stations dark (mean)", fmt.Sprintf("%.0f", r.Amp.StationsDark.Mean()))
	return t.Render(w)
}

// ExtSolarResult is the §2 risk experiment.
type ExtSolarResult struct {
	Baseline solar.RiskEstimate
	Decades  map[int]float64 // decade start year -> modulated risk
}

// ExtSolar computes Gleissberg-modulated decade risks.
func ExtSolar() (*ExtSolarResult, error) {
	out := &ExtSolarResult{Baseline: solar.BaselineRisk(), Decades: map[int]float64{}}
	for _, start := range []int{2010, 2020, 2030, 2040, 2050} {
		r, err := solar.ModulatedDecadeRisk(out.Baseline.PerDecadeBernoulli, float64(start))
		if err != nil {
			return nil, err
		}
		out.Decades[start] = r
	}
	return out, nil
}

// Render writes the risk table.
func (r *ExtSolarResult) Render(w io.Writer) error {
	t := report.NewTable("Extension: Carrington-scale risk per decade (§2.3)", "decade", "modulated-risk")
	for _, start := range []int{2010, 2020, 2030, 2040, 2050} {
		t.AddRow(fmt.Sprintf("%d-%d", start, start+9), report.Pct(r.Decades[start]))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "baseline estimates: %.1f%%-%.1f%% per decade (Bernoulli reference %.0f%%)\n",
		100*r.Baseline.PerDecadeLow, 100*r.Baseline.PerDecadeHigh, 100*r.Baseline.PerDecadeBernoulli)
	return err
}

// ExtBandingResult compares the paper's endpoint banding against path
// banding for the S1 state on the submarine network.
type ExtBandingResult struct {
	EndpointCablePct float64
	PathCablePct     float64
	// ReclassifiedCables counts cables whose band rises under path
	// banding (mid->high etc.).
	ReclassifiedCables int
}

// ExtBanding runs the banding ablation: the paper assigns each cable the
// band of its highest-latitude endpoint; physically, the great-circle
// path can arc into a higher band. Path banding is strictly more
// pessimistic — the measured gap bounds the error of the paper's
// simplification.
func ExtBanding(ctx context.Context, w *dataset.World, cfg Config) (*ExtBandingResult, error) {
	net := w.Submarine
	endpoint, err := sim.Run(ctx, net, sim.Config{
		Model: failure.S1(), SpacingKm: 150, Trials: cfg.Trials, Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	path, err := sim.Run(ctx, net, sim.Config{
		Model: failure.S1Path(), SpacingKm: 150, Trials: cfg.Trials, Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	reclassified := 0
	for ci := range net.Cables {
		eb, okE := net.CableBand(ci)
		pb, okP := net.CableBandByPath(ci)
		if okE && okP && pb > eb {
			reclassified++
		}
	}
	return &ExtBandingResult{
		EndpointCablePct:   100 * endpoint.CableFrac.Mean(),
		PathCablePct:       100 * path.CableFrac.Mean(),
		ReclassifiedCables: reclassified,
	}, nil
}

// Render writes the banding ablation table.
func (r *ExtBandingResult) Render(w io.Writer) error {
	t := report.NewTable("Ablation: endpoint vs path latitude banding (S1, 150 km)",
		"banding", "cables-failed%")
	t.AddRow("endpoint (paper)", fmt.Sprintf("%.1f", r.EndpointCablePct))
	t.AddRow("great-circle path", fmt.Sprintf("%.1f", r.PathCablePct))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "cables whose band rises under path banding: %d\n", r.ReclassifiedCables)
	return err
}

// ExtScenario runs the integrated storm timeline.
func ExtScenario(w *dataset.World, cfg Config) (*scenario.Report, error) {
	sc := scenario.DefaultConfig()
	sc.Seed = cfg.Seed
	return scenario.Run(w, sc)
}

// scenarioGolden pins the numbers the scenario table prints; the full
// report also carries per-cable plans and per-repair events.
func scenarioGolden(r *scenario.Report) any {
	g := map[string]any{
		"storm": r.Storm, "lead_time_hours": r.LeadTimeHours,
		"cables_dead": r.CablesDead, "nodes_isolated": r.NodesIsolated, "stations_dark": r.StationsDark,
		"components": r.Fragmentation.Components, "largest_frac": r.Fragmentation.LargestFrac,
		"region_split":     r.Fragmentation.RegionSplit,
		"traffic_stranded": r.TrafficStranded, "top_shifts": r.TopShifts,
		"satellites_damaged": r.Satellite.DamagedExpected, "drag_multiplier": r.Satellite.DragMultiplier,
		"fault_count": r.FaultCount,
	}
	if r.Plan != nil {
		g["powered_off"], g["survivor_gain"] = r.Plan.PowerOffCount(), r.Plan.Improvement()
	}
	if r.Recovery != nil {
		g["restored_90_days"], g["makespan_days"] = r.Recovery.RestoredAt[0.9], r.Recovery.MakespanDays
	}
	if r.Economic != nil {
		g["economic_usd"], g["economic_by_region"] = r.Economic.TotalUSD, r.Economic.ByRegion
	}
	return g
}

// ExtBridgesResult is the §5.1 topology-design pick: the low-latitude
// bridge cables that best restore one country's reach to another.
type ExtBridgesResult struct {
	From, To   string
	SpacingKm  float64
	Candidates []partition.Candidate
}

// ExtBridges asks partition.Recommend for the bridges that best keep New
// Zealand connected to the United States under S1, the question
// examples/topology-design answers.
func ExtBridges(w *dataset.World, cfg Config) (*ExtBridgesResult, error) {
	r := &ExtBridgesResult{From: "nz", To: "us", SpacingKm: 150}
	var err error
	r.Candidates, err = partition.Recommend(w, failure.S1(), r.SpacingKm, cfg.Trials, cfg.Seed, 8, r.From, r.To)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Render writes the ranked bridge table.
func (r *ExtBridgesResult) Render(w io.Writer) error {
	t := report.NewTable(fmt.Sprintf("Extension: low-latitude bridges for %s <-> %s under S1 (§5.1, %.0f km)",
		r.From, r.To, r.SpacingKm), "from", "to", "length-km", "p(survives)", "benefit")
	for _, c := range r.Candidates {
		t.AddRow(c.From, c.To, fmt.Sprintf("%.0f", c.LengthKm), fmt.Sprintf("%.2f", c.SurvivalProb),
			fmt.Sprintf("%+.3f", c.Benefit))
	}
	return t.Render(w)
}
