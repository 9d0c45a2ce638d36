package shutdown

import (
	"errors"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/gic"
	"gicnet/internal/topology"
)

func subNet(t *testing.T) *topology.Network {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	return w.Submarine
}

func TestPlanValidation(t *testing.T) {
	if _, err := PlanShutdown(nil, gic.Quebec, DefaultOptions()); err == nil {
		t.Error("want nil-network error")
	}
	opts := DefaultOptions()
	opts.SpacingKm = 0
	if _, err := PlanShutdown(subNet(t), gic.Quebec, opts); err == nil {
		t.Error("want spacing error")
	}
	opts = DefaultOptions()
	opts.PowerOffDerate = 0
	if _, err := PlanShutdown(subNet(t), gic.Quebec, opts); err == nil {
		t.Error("want derate error")
	}
	opts.PowerOffDerate = 1.2
	if _, err := PlanShutdown(subNet(t), gic.Quebec, opts); err == nil {
		t.Error("want derate error")
	}
}

func TestPlanImprovesModerateStorm(t *testing.T) {
	// §5.2: powering off "can help only when the threat is moderate" —
	// a Quebec-class storm is the sweet spot.
	net := subNet(t)
	plan, err := PlanShutdown(net, gic.Quebec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Improvement() <= 0 {
		t.Errorf("moderate storm: improvement = %v, want positive", plan.Improvement())
	}
	if plan.PowerOffCount() == 0 {
		t.Error("planner powered nothing off for a moderate storm")
	}
	if plan.PowerOffCount() > plan.Budget {
		t.Errorf("plan exceeds budget: %d > %d", plan.PowerOffCount(), plan.Budget)
	}
}

func TestPlanHelpsLittleAtCarringtonScale(t *testing.T) {
	// Against a Carrington-class storm the derate barely moves the dose
	// response: per-cable gains exist but are much smaller relative to the
	// carnage than in the moderate case.
	net := subNet(t)
	carr, err := PlanShutdown(net, gic.Carrington, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	que, err := PlanShutdown(net, gic.Quebec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	carrDead := float64(len(net.Cables)) - carr.ExpectedSurvivorsUnplanned
	queDead := float64(len(net.Cables)) - que.ExpectedSurvivorsUnplanned
	if carrDead <= queDead {
		t.Fatalf("carrington should kill more cables (%v) than quebec (%v)", carrDead, queDead)
	}
	carrRel := carr.Improvement() / carrDead
	queRel := que.Improvement() / queDead
	if carrRel >= queRel {
		t.Errorf("relative improvement at carrington (%v) should trail moderate (%v)", carrRel, queRel)
	}
}

func TestPlanRespectsBudgetAndOrdering(t *testing.T) {
	net := subNet(t)
	opts := DefaultOptions()
	opts.ShutdownsPerHour = 0.5 // tiny budget
	plan, err := PlanShutdown(net, gic.Quebec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Budget != int(gic.Quebec.TravelTime.Hours()*0.5) {
		t.Errorf("budget = %d", plan.Budget)
	}
	if plan.PowerOffCount() > plan.Budget {
		t.Error("budget exceeded")
	}
	// actions sorted by gain descending
	for i := 1; i < len(plan.Actions); i++ {
		if plan.Actions[i].Gain > plan.Actions[i-1].Gain+1e-12 {
			t.Error("actions not sorted by gain")
			break
		}
	}
	// all power-offs precede keep-ons in gain order
	seenKeep := false
	for _, a := range plan.Actions {
		if !a.PowerOff {
			seenKeep = true
		} else if seenKeep {
			t.Error("power-off after keep-on in sorted order")
			break
		}
	}
}

func TestPlanMinGainFilters(t *testing.T) {
	net := subNet(t)
	opts := DefaultOptions()
	opts.MinGain = 1.1 // impossible gain
	plan, err := PlanShutdown(net, gic.Quebec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PowerOffCount() != 0 {
		t.Errorf("min-gain filter ignored: %d power-offs", plan.PowerOffCount())
	}
	if plan.Improvement() != 0 {
		t.Errorf("no actions should mean no improvement, got %v", plan.Improvement())
	}
}

func TestPlanDeathOffNeverWorse(t *testing.T) {
	plan, err := PlanShutdown(subNet(t), gic.NewYorkRailroad, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Actions {
		if a.DeathOff > a.DeathOn+1e-12 {
			t.Fatalf("cable %q: powered-off death %v exceeds powered-on %v", a.Cable, a.DeathOff, a.DeathOn)
		}
	}
}

// danglingNet is a two-node network whose one 6,000 km cable names node 7.
func danglingNet() *topology.Network {
	return &topology.Network{
		Name:  "dangling",
		Nodes: []topology.Node{{Name: "a"}, {Name: "b"}},
		Cables: []topology.Cable{{
			Name:     "astray",
			Segments: []topology.Segment{{A: 0, B: 7, LengthKm: 6000}},
		}},
	}
}

// TestPlanRefusesDanglingSegment: the storm model reads each cable's
// endpoint latitudes by node index, so a segment naming a missing node
// must be refused with Validate's error before it is indexed.
func TestPlanRefusesDanglingSegment(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("PlanShutdown panicked on a dangling segment: %v", r)
		}
	}()
	if _, err := PlanShutdown(danglingNet(), gic.Quebec, DefaultOptions()); !errors.Is(err, topology.ErrDanglingSegment) {
		t.Fatalf("PlanShutdown on a dangling segment = %v, want topology.ErrDanglingSegment", err)
	}
}
