package gicnet

import (
	"errors"
	"math"
	"testing"

	"gicnet/internal/geo"
	"gicnet/internal/routing"
	"gicnet/internal/topology"
)

func TestFacadeTrafficChain(t *testing.T) {
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	demands := DefaultTrafficDemands()
	if len(demands) == 0 {
		t.Fatal("no demands")
	}
	before, err := RouteTraffic(w.Submarine, demands, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := SampleStorm(w.Submarine, S1(), 150, 4)
	if err != nil {
		t.Fatal(err)
	}
	after, err := RouteTraffic(w.Submarine, demands, dead)
	if err != nil {
		t.Fatal(err)
	}
	if after.StrandedFrac() < before.StrandedFrac() {
		t.Error("storm reduced stranded demand")
	}
	if _, err := CompareTrafficLoads(w.Submarine, before, after); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeRouteTrafficRefusesDanglingSegment: RouteTraffic on a network
// whose one segment names a missing node returns routing.ErrBadInput
// instead of panicking.
func TestFacadeRouteTrafficRefusesDanglingSegment(t *testing.T) {
	net := &Network{
		Name: "dangling",
		Nodes: []Node{
			{Name: "a", Coord: geo.Coord{Lat: 40, Lon: -70}, HasCoord: true},
			{Name: "b", Coord: geo.Coord{Lat: 50, Lon: -5}, HasCoord: true},
		},
		Cables: []Cable{{Name: "c", Segments: []topology.Segment{{A: 0, B: 7, LengthKm: 5000}}}},
	}
	if _, err := RouteTraffic(net, DefaultTrafficDemands(), nil); !errors.Is(err, routing.ErrBadInput) {
		t.Fatalf("RouteTraffic: err %v, want routing.ErrBadInput", err)
	}
}

func TestFacadeRecoveryChain(t *testing.T) {
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	dead, err := SampleStorm(w.Submarine, S2(), 150, 6)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := SampleFaults(w.Submarine, dead, 150, 0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) == 0 {
		t.Skip("lucky storm: no faults")
	}
	sched, err := PlanRecovery(w.Submarine, faults, DefaultRepairFleet())
	if err != nil {
		t.Fatal(err)
	}
	if sched.MakespanDays <= 0 {
		t.Error("zero makespan")
	}
}

func TestFacadePlacementEvaluation(t *testing.T) {
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	g, err := EvaluatePlacement(w, GooglePlacement(), S1(), 150, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := EvaluatePlacement(w, FacebookPlacement(), S1(), 150, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Availability.Mean() < f.Availability.Mean() {
		t.Errorf("google %v below facebook %v", g.Availability.Mean(), f.Availability.Mean())
	}
}

func TestFacadeSolarRisk(t *testing.T) {
	r := BaselineSolarRisk()
	if r.PerDecadeBernoulli != 0.09 {
		t.Errorf("bernoulli = %v", r.PerDecadeBernoulli)
	}
	p, err := StormWindowProbability(0.09, 10)
	if err != nil || math.Abs(p-0.09) > 1e-9 {
		t.Errorf("window probability = %v, %v", p, err)
	}
	if _, err := StormWindowProbability(2, 10); err == nil {
		t.Error("want probability error")
	}
}

func TestFacadeScenario(t *testing.T) {
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultScenarioConfig()
	cfg.Seed = 8
	rep, err := RunScenario(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CablesDead == 0 || rep.Recovery == nil {
		t.Error("scenario incomplete")
	}
}
