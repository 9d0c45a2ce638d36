// Package gicnet analyses the resilience of Internet infrastructure
// against solar superstorms — a faithful, self-contained reproduction of
// "Solar Superstorms: Planning for an Internet Apocalypse" (SIGCOMM 2021).
//
// The library bundles:
//
//   - calibrated synthetic stand-ins for the paper's datasets (submarine
//     cable map, US long-haul fiber, ITU land fiber, router/AS catalog,
//     IXPs, DNS roots, hyperscaler data centers, gridded population);
//   - the paper's repeater failure model family (uniform, latitude-tiered
//     S1/S2) plus a physically derived GIC dose-response model;
//   - a deterministic parallel Monte Carlo engine;
//   - analyses for every figure and table in the paper's evaluation; and
//   - the §5 extensions: shutdown planning, satellite exposure, partition
//     bridging and power-grid coupling.
//
// # Quick start
//
//	world, err := gicnet.DefaultWorld()
//	if err != nil { ... }
//	res, err := gicnet.Simulate(ctx, world.Submarine, gicnet.SimConfig{
//		Model: gicnet.S1(), SpacingKm: 150, Trials: 10, Seed: 1859,
//	})
//	fmt.Printf("cables failed: %.1f%%\n", 100*res.CableFrac.Mean())
//
// Everything is deterministic: the same seed reproduces the same world and
// the same simulation outcomes regardless of parallelism.
package gicnet

import (
	"context"

	"gicnet/internal/asn"
	"gicnet/internal/core"
	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
	"gicnet/internal/failure"
	"gicnet/internal/gic"
	"gicnet/internal/graph"
	"gicnet/internal/infra"
	"gicnet/internal/partition"
	"gicnet/internal/recovery"
	"gicnet/internal/resilience"
	"gicnet/internal/routing"
	"gicnet/internal/satellite"
	"gicnet/internal/scenario"
	"gicnet/internal/shutdown"
	"gicnet/internal/sim"
	"gicnet/internal/solar"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Re-exported core types. The aliases form the public API surface; the
// internal packages stay free to grow without breaking importers.
type (
	// World bundles every dataset the analyses consume.
	World = dataset.World
	// WorldConfig tunes the dataset generators.
	WorldConfig = dataset.WorldConfig
	// Network is a cable network (submarine, US land, ITU land).
	Network = topology.Network
	// Cable is one multi-segment cable system.
	Cable = topology.Cable
	// Node is a landing point or fiber endpoint.
	Node = topology.Node

	// FailureModel assigns per-repeater failure probabilities.
	FailureModel = failure.Model
	// Uniform is the paper's uniform-probability model (Figs 6-7).
	Uniform = failure.Uniform
	// LatitudeTiered is the paper's banded model (Fig 8).
	LatitudeTiered = failure.LatitudeTiered
	// Outcome is one realisation's failure summary.
	Outcome = failure.Outcome
	// CableSet is a packed set of cables indexed like Network.Cables: the
	// dead set SampleStorm draws and RouteTraffic and SampleFaults take.
	// Get, Set and Count read and write it.
	CableSet = graph.Bitset

	// SimConfig configures a Monte Carlo run.
	SimConfig = sim.Config
	// SimResult aggregates a run's outcomes.
	SimResult = sim.Result

	// Storm is a CME scenario.
	Storm = gic.Storm

	// Analyzer runs country-scale and systems analyses.
	Analyzer = core.Analyzer
	// Target selects node sets ("us", "region:europe", "city:shanghai").
	Target = core.Target

	// ShutdownPlan is a pre-impact power-down schedule (§5.2).
	ShutdownPlan = shutdown.Plan
	// ShutdownOptions tunes the planner.
	ShutdownOptions = shutdown.Options

	// Constellation is a LEO shell (§3.3).
	Constellation = satellite.Constellation
	// SatelliteExposure summarises storm impact on a constellation.
	SatelliteExposure = satellite.Exposure

	// Fragmentation summarises post-storm partitioning (§5.3).
	Fragmentation = partition.Fragmentation
	// BridgeCandidate is a proposed low-latitude cable (§5.1).
	BridgeCandidate = partition.Candidate

	// ASSummary is the Figure 9 analysis.
	ASSummary = asn.Summary
	// InfraReport is the §4.4 systems analysis.
	InfraReport = infra.Report

	// ExperimentConfig parameterises paper-figure reproduction.
	ExperimentConfig = experiments.Config

	// TrafficDemand is one region-to-region traffic entry (§5.5).
	TrafficDemand = routing.Demand
	// TrafficReport is the result of routing demands over the network.
	TrafficReport = routing.Report
	// LoadShift describes a cable whose load grew after failures.
	LoadShift = routing.Shift

	// RepairFault is one damaged cable awaiting a ship (§3.2.2).
	RepairFault = recovery.Fault
	// RepairShip is one cable vessel.
	RepairShip = recovery.Ship
	// RepairSchedule is a full recovery plan.
	RepairSchedule = recovery.Schedule

	// ServicePlacement is a set of replica locations for resilience
	// testing (§5.4).
	ServicePlacement = resilience.Placement
	// ResilienceResult is a placement's storm availability.
	ResilienceResult = resilience.Result

	// SolarRisk bounds the probability of a Carrington-scale event (§2).
	SolarRisk = solar.RiskEstimate

	// ScenarioConfig configures an end-to-end storm timeline.
	ScenarioConfig = scenario.Config
	// ScenarioReport is the integrated outcome of one storm scenario.
	ScenarioReport = scenario.Report
)

// DefaultSeed is the canonical world seed (1859, the Carrington year).
const DefaultSeed = dataset.DefaultSeed

// DefaultWorld returns the canonical calibrated world, generated once per
// process and cached. Treat it as read-only.
func DefaultWorld() (*World, error) { return dataset.Default() }

// NewWorld generates a private world from a seed with default calibration.
func NewWorld(seed uint64) (*World, error) {
	return dataset.GenerateWorld(dataset.DefaultWorldConfig(), seed)
}

// NewWorldWithConfig generates a world with custom generator settings.
func NewWorldWithConfig(cfg WorldConfig, seed uint64) (*World, error) {
	return dataset.GenerateWorld(cfg, seed)
}

// DefaultWorldConfig returns the calibrated generator settings.
func DefaultWorldConfig() WorldConfig { return dataset.DefaultWorldConfig() }

// S1 returns the paper's high-failure latitude-tiered model: per-repeater
// probabilities [1, 0.1, 0.01] for bands (>60, 40-60, <40).
func S1() LatitudeTiered { return failure.S1() }

// S2 returns the paper's low-failure model: [0.1, 0.01, 0.001].
func S2() LatitudeTiered { return failure.S2() }

// StormModel derives a latitude-tiered model from a physical storm
// scenario via the GIC dose-response chain.
func StormModel(s Storm) (LatitudeTiered, error) {
	return failure.FromStorm(s, gic.DefaultSubmarineConductor(), gic.DefaultRepeaterTolerance())
}

// ScaledModel multiplies a model's per-repeater probabilities by factor
// (clamped to [0,1]) for sensitivity sweeps.
func ScaledModel(base FailureModel, factor float64) FailureModel {
	return failure.Scaled{Base: base, Factor: factor}
}

// OverlayModels combines two independent failure sources: a repeater
// survives only if it survives both.
func OverlayModels(a, b FailureModel) FailureModel { return failure.Overlay{A: a, B: b} }

// WorstOfModels takes the pointwise maximum of two models — a conservative
// envelope across model uncertainty.
func WorstOfModels(a, b FailureModel) FailureModel { return failure.Worst{A: a, B: b} }

// Storm scenarios, strongest first.
var (
	Carrington      = gic.Carrington
	NewYorkRailroad = gic.NewYorkRailroad
	Quebec          = gic.Quebec
	ModerateStorm   = gic.Moderate
)

// Simulate runs a Monte Carlo failure simulation on a network.
func Simulate(ctx context.Context, net *Network, cfg SimConfig) (*SimResult, error) {
	return sim.Run(ctx, net, cfg)
}

// NewAnalyzer wraps a world for country-scale analyses.
func NewAnalyzer(w *World) (*Analyzer, error) { return core.NewAnalyzer(w) }

// PlanShutdown builds a §5.2 pre-impact shutdown schedule for a forecast
// storm.
func PlanShutdown(net *Network, s Storm, opts ShutdownOptions) (*ShutdownPlan, error) {
	return shutdown.PlanShutdown(net, s, opts)
}

// DefaultShutdownOptions returns the planner defaults.
func DefaultShutdownOptions() ShutdownOptions { return shutdown.DefaultOptions() }

// Starlink returns a first-shell Starlink-like constellation.
func Starlink() Constellation { return satellite.Starlink() }

// AssessConstellation computes a constellation's storm exposure (§3.3).
func AssessConstellation(c Constellation, s Storm) (*SatelliteExposure, error) {
	return satellite.Assess(c, s)
}

// AnalyzeASes runs the Figure 9 AS analysis.
func AnalyzeASes(w *World) (*ASSummary, error) { return asn.Analyze(w.Routers) }

// AnalyzeSystems runs the §4.4 infrastructure analysis.
func AnalyzeSystems(w *World) (*InfraReport, error) { return infra.BuildReport(w) }

// RecommendBridges proposes low-latitude cables that improve probeA-probeB
// survivability under the model (§5.1).
//
// Every candidate is priced exactly from one base run of trials trials:
// its benefit is its survival probability times the share of trials in
// which the probe pair is cut and the cable, with its landings, would join
// the two sides. Survival is priced on a network holding only the
// candidate cable and its four nodes, so the model must price a cable from
// that cable's own segments and nodes. Every model of this package does; a
// custom model that reads other cables, or the cable's index, would price
// the candidates differently.
func RecommendBridges(w *World, m FailureModel, spacingKm float64, trials int, seed uint64, n int, probeA, probeB string) ([]BridgeCandidate, error) {
	return partition.Recommend(w, m, spacingKm, trials, seed, n, probeA, probeB)
}

// DefaultTrafficDemands returns the synthetic inter-region traffic matrix.
func DefaultTrafficDemands() []TrafficDemand { return routing.DefaultDemands() }

// NewCableSet returns an empty cable set sized for net; for a nil network,
// an empty set of no cables.
func NewCableSet(net *Network) CableSet {
	if net == nil {
		return graph.NewBitset(0)
	}
	return graph.NewBitset(len(net.Cables))
}

// RouteTraffic routes demands over the network; cableDead may be nil for
// the intact network (§5.5 load-shift analysis).
func RouteTraffic(net *Network, demands []TrafficDemand, cableDead CableSet) (*TrafficReport, error) {
	return routing.Route(net, demands, cableDead)
}

// CompareTrafficLoads lists cables whose load grew between two routings.
func CompareTrafficLoads(net *Network, before, after *TrafficReport) ([]LoadShift, error) {
	return routing.CompareLoads(net, before, after)
}

// SampleStorm draws one cable-death realisation: the set of cables killed
// by the model at the given spacing, one draw per cable in cable order.
func SampleStorm(net *Network, m FailureModel, spacingKm float64, seed uint64) (CableSet, error) {
	plan, err := failure.Compile(net, m, spacingKm)
	if err != nil {
		return nil, err
	}
	dead := plan.NewDead()
	plan.SampleDense(dead, xrand.New(seed))
	return dead, nil
}

// SampleFaults converts a cable-death realisation into repair faults, one
// per dead cable in ascending cable order.
func SampleFaults(net *Network, cableDead CableSet, spacingKm, severity float64, seed uint64) ([]RepairFault, error) {
	return recovery.FaultsFrom(net, cableDead, spacingKm, severity, xrand.New(seed))
}

// PlanRecovery schedules the cable-ship fleet over the faults (§3.2.2).
// Each fault must name its own cable. A malformed network, a NaN or
// infinite ship speed, an invalid ship position or fault location and a
// negative repeater count are refused with an error.
func PlanRecovery(net *Network, faults []RepairFault, fleet []RepairShip) (*RepairSchedule, error) {
	return recovery.PlanRecovery(net, faults, fleet, recovery.DefaultOptions())
}

// DefaultRepairFleet returns a representative global cable-ship fleet.
func DefaultRepairFleet() []RepairShip { return recovery.DefaultFleet() }

// EvaluatePlacement runs the §5.4 standardised storm test on a service
// placement.
func EvaluatePlacement(w *World, p ServicePlacement, m FailureModel, spacingKm float64, trials int, seed uint64) (*ResilienceResult, error) {
	return resilience.Evaluate(w, p, m, spacingKm, trials, seed)
}

// GooglePlacement and FacebookPlacement wrap the embedded hyperscaler
// site lists for resilience testing.
func GooglePlacement() ServicePlacement   { return resilience.GooglePlacement() }
func FacebookPlacement() ServicePlacement { return resilience.FacebookPlacement() }

// RunScenario executes a full storm timeline — shutdown planning, impact,
// grid cascade, partitioning, traffic shift, satellite exposure, repair
// campaign — and returns the integrated report.
func RunScenario(w *World, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario.Run(w, cfg)
}

// DefaultScenarioConfig returns a full-stack Carrington run.
func DefaultScenarioConfig() ScenarioConfig { return scenario.DefaultConfig() }

// BaselineSolarRisk returns the paper's cited Carrington-scale probability
// estimates (§2.3).
func BaselineSolarRisk() SolarRisk { return solar.BaselineRisk() }

// StormWindowProbability converts a per-decade probability into the
// probability of at least one event within the window.
func StormWindowProbability(perDecade, years float64) (float64, error) {
	return solar.WindowProbability(perDecade, years)
}
