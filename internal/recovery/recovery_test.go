package recovery

import (
	"errors"
	"math"
	"testing"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// sampleDead draws one realisation of m on net with Plan.SampleDense.
func sampleDead(t *testing.T, net *topology.Network, m failure.Model, rng *xrand.Source) graph.Bitset {
	t.Helper()
	plan, err := failure.Compile(net, m, 150)
	if err != nil {
		t.Fatal(err)
	}
	dead := plan.NewDead()
	plan.SampleDense(dead, rng)
	return dead
}

func stormDamage(t *testing.T) (*topology.Network, []Fault, graph.Bitset) {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	net := w.Submarine
	rng := xrand.New(42)
	dead := sampleDead(t, net, failure.S2(), rng)
	faults, err := FaultsFrom(net, dead, 150, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) == 0 {
		t.Fatal("S2 storm produced no faults")
	}
	return net, faults, dead
}

func TestFaultsFromValidation(t *testing.T) {
	net, _, dead := stormDamage(t)
	rng := xrand.New(1)
	if _, err := FaultsFrom(net, graph.NewBitset(2), 150, 0.1, rng); !errors.Is(err, topology.ErrDeadSet) {
		t.Errorf("short set: err %v, want topology.ErrDeadSet", err)
	}
	if _, err := FaultsFrom(net, dead, 150, 0, rng); err == nil {
		t.Error("want severity error")
	}
	if _, err := FaultsFrom(net, dead, 150, 1.5, rng); err == nil {
		t.Error("want severity error")
	}
	// A tiny spacing saturates the repeater count; the per-repeater loop
	// must refuse it rather than spin.
	if _, err := FaultsFrom(net, dead, 1e-20, 0.1, rng); err != failure.ErrBadSpacing {
		t.Errorf("spacing 1e-20: err = %v, want failure.ErrBadSpacing", err)
	}
}

func TestFaultsHaveDamage(t *testing.T) {
	net, faults, dead := stormDamage(t)
	if len(faults) != dead.Count() {
		t.Errorf("faults = %d, dead cables = %d", len(faults), dead.Count())
	}
	for _, f := range faults {
		if f.DamagedRepeaters < 1 {
			t.Fatalf("fault on %s has no damage", net.Cables[f.Cable].Name)
		}
	}
}

func TestPlanRecoveryBasics(t *testing.T) {
	net, faults, _ := stormDamage(t)
	sched, err := PlanRecovery(net, faults, DefaultFleet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != len(faults) {
		t.Fatalf("events = %d, faults = %d", len(sched.Events), len(faults))
	}
	if sched.MakespanDays <= 0 {
		t.Error("zero makespan")
	}
	// Events sorted by completion, each with sane times.
	prev := 0.0
	for _, e := range sched.Events {
		if e.Done < e.Start {
			t.Fatalf("event %q finishes before it starts", e.Cable)
		}
		if e.Done < prev {
			t.Fatal("events not sorted by completion")
		}
		prev = e.Done
	}
	// Milestones are monotone in threshold.
	if sched.RestoredAt[0.5] > sched.RestoredAt[0.95] {
		t.Errorf("milestones inverted: %v", sched.RestoredAt)
	}
	if sched.RestoredAt[1.0] > sched.MakespanDays+1e-9 {
		t.Errorf("full restoration after makespan: %v > %v", sched.RestoredAt[1.0], sched.MakespanDays)
	}
	// A storm-scale outage takes a long time with a realistic fleet — the
	// paper's "several months" concern.
	if MonthsToRestore(sched.MakespanDays) < 1 {
		t.Errorf("makespan = %v days; storm-scale repair should take months", sched.MakespanDays)
	}
}

func TestPlanRecoveryValidation(t *testing.T) {
	net, faults, _ := stormDamage(t)
	if _, err := PlanRecovery(net, faults, nil, DefaultOptions()); err == nil {
		t.Error("want empty fleet error")
	}
	opts := DefaultOptions()
	opts.BaseDays = 0
	if _, err := PlanRecovery(net, faults, DefaultFleet(), opts); err == nil {
		t.Error("want base days error")
	}
	bad := []Fault{{Cable: 99999}}
	if _, err := PlanRecovery(net, bad, DefaultFleet(), DefaultOptions()); err == nil {
		t.Error("want fault index error")
	}
	fleet := DefaultFleet()
	fleet[0].SpeedKmPerDay = 0
	if _, err := PlanRecovery(net, faults, fleet, DefaultOptions()); err == nil {
		t.Error("want ship speed error")
	}
}

// TestPlanRecoveryRefusesBadInput covers input the value rates cannot be
// priced from. Before the checks, a NaN speed, position or location made
// every rate NaN and the scheduler panicked with index -1; a negative
// repeater count finished a repair before it started; a repeated fault
// scheduled its cable twice; a segment naming a missing node panicked.
func TestPlanRecoveryRefusesBadInput(t *testing.T) {
	net, faults, _ := stormDamage(t)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		network func(*topology.Network)
		ship    func(*Ship)
		fault   func([]Fault) []Fault
		option  func(*Options)
	}{
		{name: "NaN speed", ship: func(s *Ship) { s.SpeedKmPerDay = nan }},
		{name: "infinite speed", ship: func(s *Ship) { s.SpeedKmPerDay = inf }},
		{name: "NaN ship latitude", ship: func(s *Ship) { s.Pos.Lat = nan }},
		{name: "ship latitude 95", ship: func(s *Ship) { s.Pos.Lat = 95 }},
		{name: "NaN fault longitude", fault: func(fs []Fault) []Fault { fs[0].Location.Lon = nan; return fs }},
		{name: "fault longitude 200", fault: func(fs []Fault) []Fault { fs[0].Location.Lon = 200; return fs }},
		{name: "negative damage", fault: func(fs []Fault) []Fault { fs[0].DamagedRepeaters = -1000; return fs }},
		{name: "repeated fault", fault: func(fs []Fault) []Fault { return append(fs, fs[0]) }},
		{name: "dangling segment", network: func(n *topology.Network) {
			n.Cables = append(n.Cables, topology.Cable{Name: "dangling", Segments: []topology.Segment{{A: 0, B: len(n.Nodes)}}})
		}},
		{name: "NaN base days", option: func(o *Options) { o.BaseDays = nan }},
		{name: "negative days per repeater", option: func(o *Options) { o.DaysPerRepeater = -1 }},
	}
	for _, c := range cases {
		n := net
		fleet := DefaultFleet()
		fs := append([]Fault(nil), faults...)
		opts := DefaultOptions()
		if c.network != nil {
			n = &topology.Network{Name: net.Name, Nodes: net.Nodes, Cables: append([]topology.Cable(nil), net.Cables...)}
			c.network(n)
		}
		if c.ship != nil {
			c.ship(&fleet[3])
		}
		if c.fault != nil {
			fs = c.fault(fs)
		}
		if c.option != nil {
			c.option(&opts)
		}
		sched, err := PlanRecovery(n, fs, fleet, opts)
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: got schedule %v, err %v; want ErrBadInput", c.name, sched != nil, err)
		}
	}
}

// TestPlanRecoveryAllocationCeiling bounds PlanRecovery's allocations on
// BenchmarkRecoveryPlanning's input (S2 damage at seed 7 on the default
// world). Allocation counts do not depend on the host, so the ceiling
// gives the same verdict anywhere; per-assignment rescans of every node
// cost about ten thousand.
func TestPlanRecoveryAllocationCeiling(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	dead := sampleDead(t, w.Submarine, failure.S2(), rng)
	faults, err := FaultsFrom(w.Submarine, dead, 150, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	fleet := DefaultFleet()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := PlanRecovery(w.Submarine, faults, fleet, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("PlanRecovery allocates %.0f times for %d faults, ceiling 1000", allocs, len(faults))
	}
}

func TestBiggerFleetFinishesFaster(t *testing.T) {
	net, faults, _ := stormDamage(t)
	times, err := FleetSizeSweep(net, faults, []int{2, 10, 40}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !(times[40] <= times[10] && times[10] <= times[2]) {
		t.Errorf("restoration time should fall with fleet size: %v", times)
	}
	if times[2] <= 0 {
		t.Error("zero restoration time")
	}
	if _, err := FleetSizeSweep(net, faults, []int{0}, DefaultOptions()); err == nil {
		t.Error("want size error")
	}
}

// TestRestorationCurveMonotone walks the schedule's repairs in completion
// order: restored connectivity starts short of full, never falls, and is
// complete once the last repair lands.
func TestRestorationCurveMonotone(t *testing.T) {
	net, faults, _ := stormDamage(t)
	sched, err := PlanRecovery(net, faults, DefaultFleet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dead := graph.NewBitset(len(net.Cables))
	for _, f := range faults {
		dead.Set(f.Cable)
	}
	total := net.ConnectedNodeCount()
	restored := total - len(net.UnreachableNodes(dead))
	if restored >= total {
		t.Error("restoration complete at day 0 despite faults")
	}
	prev := 0.0
	for _, e := range sched.Events {
		if e.Done < prev || e.NodesRestored < 0 {
			t.Fatalf("restoration curve not monotone at %v days", e.Done)
		}
		prev = e.Done
		restored += e.NodesRestored
	}
	if restored != total {
		t.Errorf("restoration at makespan = %d of %d nodes, want all", restored, total)
	}
}

func TestSchedulerPrioritisesReconnection(t *testing.T) {
	// Two faults: one isolates many nodes, one is redundant. The valuable
	// repair should complete first when one ship handles both.
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	net := w.Submarine

	// Find a cable whose death isolates nodes, and one that doesn't.
	var valuable, redundant = -1, -1
	dead := graph.NewBitset(len(net.Cables))
	for ci := range net.Cables {
		dead.Set(ci)
		iso := len(net.UnreachableNodes(dead))
		dead.Unset(ci)
		if iso > 0 && valuable < 0 {
			valuable = ci
		}
		if iso == 0 && redundant < 0 {
			redundant = ci
		}
		if valuable >= 0 && redundant >= 0 {
			break
		}
	}
	if valuable < 0 || redundant < 0 {
		t.Skip("network lacks the needed cable mix")
	}
	faults := []Fault{
		{Cable: redundant, DamagedRepeaters: 1},
		{Cable: valuable, DamagedRepeaters: 1},
	}
	fleet := DefaultFleet()[:1]
	sched, err := PlanRecovery(net, faults, fleet, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sched.Events[0].Cable != net.Cables[valuable].Name {
		t.Errorf("first repair = %q, want the isolating cable %q",
			sched.Events[0].Cable, net.Cables[valuable].Name)
	}
	if sched.Events[0].NodesRestored == 0 {
		t.Error("valuable repair restored no nodes")
	}
}

func TestMonthsToRestore(t *testing.T) {
	if MonthsToRestore(90) != 3 {
		t.Errorf("90 days = %v months", MonthsToRestore(90))
	}
}

func TestDefaultFleetSane(t *testing.T) {
	fleet := DefaultFleet()
	if len(fleet) < 5 {
		t.Fatal("fleet too small")
	}
	seen := map[string]bool{}
	for _, s := range fleet {
		if seen[s.Name] {
			t.Errorf("duplicate ship %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Pos.Validate(); err != nil {
			t.Errorf("ship %q position: %v", s.Name, err)
		}
		if s.SpeedKmPerDay <= 0 {
			t.Errorf("ship %q speed", s.Name)
		}
	}
}

// TestFaultsFromRefusesInfiniteLength: a cable of infinite length has
// math.MaxInt repeaters at any spacing, so a per-repeater damage loop over
// it never ends. The network must be refused before any loop runs; the
// call runs under its own deadline so that a hang fails the test instead
// of stalling the suite.
func TestFaultsFromRefusesInfiniteLength(t *testing.T) {
	net := &topology.Network{
		Name:  "inf",
		Nodes: []topology.Node{{Name: "a"}, {Name: "b"}},
		Cables: []topology.Cable{{
			Name:     "endless",
			Segments: []topology.Segment{{A: 0, B: 1, LengthKm: math.Inf(1)}},
		}},
	}
	dead := graph.NewBitset(1)
	dead.Set(0)
	done := make(chan error, 1)
	go func() {
		_, err := FaultsFrom(net, dead, 150, 0.1, xrand.New(1))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBadInput) || !errors.Is(err, topology.ErrBadLength) {
			t.Fatalf("FaultsFrom on an infinite cable = %v, want ErrBadInput wrapping topology.ErrBadLength", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FaultsFrom on an infinite cable still running after 5 s")
	}
}
