package failure

import (
	"math"
	"testing"
	"testing/quick"

	"gicnet/internal/geo"
	"gicnet/internal/gic"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// net returns a three-cable network spanning the three latitude bands:
// c0 high (oslo 69.6N), c1 mid (nyc 40.7N), c2 low (singapore 1.3N), plus
// a repeater-free short cable c3.
func net() *topology.Network {
	return &topology.Network{
		Name: "bands",
		Nodes: []topology.Node{
			{Name: "tromso", Coord: geo.Coord{Lat: 69.6, Lon: 18.9}, HasCoord: true, Country: "no"},
			{Name: "london", Coord: geo.Coord{Lat: 51.5, Lon: -0.1}, HasCoord: true, Country: "gb"},
			{Name: "nyc", Coord: geo.Coord{Lat: 40.7, Lon: -74.0}, HasCoord: true, Country: "us"},
			{Name: "miami", Coord: geo.Coord{Lat: 25.8, Lon: -80.2}, HasCoord: true, Country: "us"},
			{Name: "singapore", Coord: geo.Coord{Lat: 1.35, Lon: 103.8}, HasCoord: true, Country: "sg"},
			{Name: "jakarta", Coord: geo.Coord{Lat: -6.2, Lon: 106.8}, HasCoord: true, Country: "id"},
		},
		Cables: []topology.Cable{
			{Name: "c0-high", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 2000}}, KnownLength: true},
			{Name: "c1-mid", Segments: []topology.Segment{{A: 2, B: 3, LengthKm: 1800}}, KnownLength: true},
			{Name: "c2-low", Segments: []topology.Segment{{A: 4, B: 5, LengthKm: 900}}, KnownLength: true},
			{Name: "c3-short", Segments: []topology.Segment{{A: 3, B: 2, LengthKm: 100}}, KnownLength: true},
		},
	}
}

func TestUniformModel(t *testing.T) {
	m := Uniform{P: 0.25}
	n := net()
	if got := m.RepeaterProb(n, 0); got != 0.25 {
		t.Errorf("RepeaterProb = %v", got)
	}
	if m.Name() == "" {
		t.Error("empty name")
	}
}

func TestLatitudeTieredBands(t *testing.T) {
	n := net()
	s1 := S1()
	if got := s1.RepeaterProb(n, 0); got != 1 {
		t.Errorf("high-band cable prob = %v, want 1", got)
	}
	if got := s1.RepeaterProb(n, 1); got != 0.1 {
		t.Errorf("mid-band cable prob = %v, want 0.1", got)
	}
	if got := s1.RepeaterProb(n, 2); got != 0.01 {
		t.Errorf("low-band cable prob = %v, want 0.01", got)
	}
	s2 := S2()
	if got := s2.RepeaterProb(n, 0); got != 0.1 {
		t.Errorf("S2 high = %v", got)
	}
	if got := s2.RepeaterProb(n, 2); got != 0.001 {
		t.Errorf("S2 low = %v", got)
	}
}

func TestLatitudeTieredHighestEndpointRule(t *testing.T) {
	// Cable from tromso (69.6N) to jakarta (6.2S): highest endpoint is
	// high band, so the whole cable gets the high-band probability.
	n := net()
	n.Cables = append(n.Cables, topology.Cable{
		Name:     "polar-equator",
		Segments: []topology.Segment{{A: 0, B: 5, LengthKm: 12000}},
	})
	if got := S1().RepeaterProb(n, len(n.Cables)-1); got != 1 {
		t.Errorf("highest-endpoint rule broken: %v", got)
	}
}

func TestLatitudeTieredNoCoordsFallsBackLow(t *testing.T) {
	n := net()
	for i := range n.Nodes {
		n.Nodes[i].HasCoord = false
	}
	if got := S1().RepeaterProb(n, 0); got != 0.01 {
		t.Errorf("coordinate-free fallback = %v, want low-band 0.01", got)
	}
}

func TestPathTieredStricterThanEndpoint(t *testing.T) {
	// Seattle-ish to London: endpoints both mid-band, but the great
	// circle crosses 60N, so path banding applies the high-band rate.
	n := &topology.Network{
		Name: "arc",
		Nodes: []topology.Node{
			{Name: "seattle", Coord: geo.Coord{Lat: 47.6, Lon: -122.3}, HasCoord: true},
			{Name: "london", Coord: geo.Coord{Lat: 51.5, Lon: -0.1}, HasCoord: true},
		},
		Cables: []topology.Cable{
			{Name: "arc", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 7700}}},
		},
	}
	endpoint := S1().RepeaterProb(n, 0)
	path := S1Path().RepeaterProb(n, 0)
	if endpoint != 0.1 {
		t.Errorf("endpoint banding = %v, want mid-band 0.1", endpoint)
	}
	if path != 1 {
		t.Errorf("path banding = %v, want high-band 1", path)
	}
}

func TestPathTieredNeverBelowEndpoint(t *testing.T) {
	// Path max latitude >= endpoint max latitude, so path-banded
	// probabilities dominate endpoint-banded ones cable by cable.
	n := net()
	for ci := range n.Cables {
		e := S1().RepeaterProb(n, ci)
		p := S1Path().RepeaterProb(n, ci)
		if p < e {
			t.Errorf("cable %d: path prob %v below endpoint prob %v", ci, p, e)
		}
	}
}

func TestPathTieredNoCoords(t *testing.T) {
	n := net()
	for i := range n.Nodes {
		n.Nodes[i].HasCoord = false
	}
	if got := S1Path().RepeaterProb(n, 0); got != 0.01 {
		t.Errorf("coordinate-free fallback = %v", got)
	}
	if S1Path().Name() != "S1-path" {
		t.Errorf("name = %q", S1Path().Name())
	}
	anon := PathTiered{Probs: S1().Probs}
	if anon.Name() == "" {
		t.Error("anonymous name empty")
	}
}

func TestTieredNames(t *testing.T) {
	if S1().Name() != "S1(high)" || S2().Name() != "S2(low)" {
		t.Error("unexpected S1/S2 names")
	}
	anon := LatitudeTiered{Probs: [geo.NumBands]float64{0.1, 0.2, 0.3}}
	if anon.Name() == "" {
		t.Error("anonymous tiered model needs a synthesized name")
	}
}

func TestFromStorm(t *testing.T) {
	m, err := FromStorm(gic.Carrington, gic.DefaultSubmarineConductor(), gic.DefaultRepeaterTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if m.Probs[geo.BandHigh] <= m.Probs[geo.BandLow] {
		t.Error("storm-derived model must be ordered by band")
	}
	if m.Name() != "storm:carrington-1859" {
		t.Errorf("name = %q", m.Name())
	}
	if _, err := FromStorm(gic.Carrington, gic.Conductor{}, gic.DefaultRepeaterTolerance()); err == nil {
		t.Error("bad conductor should error")
	}
}

func TestFuncModel(t *testing.T) {
	m := Func{Label: "custom", F: func(_ *topology.Network, ci int) float64 { return float64(ci) / 10 }}
	if m.Name() != "custom" || m.RepeaterProb(net(), 3) != 0.3 {
		t.Error("Func adapter broken")
	}
}

func TestCableDeathProb(t *testing.T) {
	n := net()
	// c0: 2000km at 150km spacing -> 13 repeaters
	p, err := CableDeathProb(n, Uniform{P: 0.1}, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(0.9, 13)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("death prob = %v, want %v", p, want)
	}
	// repeater-free cable never dies
	p, _ = CableDeathProb(n, Uniform{P: 1}, 150, 3)
	if p != 0 {
		t.Errorf("repeater-free cable death prob = %v", p)
	}
	// certain repeater failure kills any repeatered cable
	p, _ = CableDeathProb(n, Uniform{P: 1}, 150, 0)
	if p != 1 {
		t.Errorf("p=1 cable death prob = %v", p)
	}
	// zero probability
	p, _ = CableDeathProb(n, Uniform{P: 0}, 150, 0)
	if p != 0 {
		t.Errorf("p=0 cable death prob = %v", p)
	}
	if _, err := CableDeathProb(n, Uniform{P: 0.5}, 0, 0); err == nil {
		t.Error("want spacing error")
	}
}

func TestCableDeathProbMonotoneInRepeaterCount(t *testing.T) {
	f := func(pSeed float64, lenSeed float64) bool {
		if math.IsNaN(pSeed) || math.IsNaN(lenSeed) {
			return true
		}
		p := math.Mod(math.Abs(pSeed), 1)
		length := 100 + math.Mod(math.Abs(lenSeed), 30000)
		n := &topology.Network{
			Name: "m",
			Nodes: []topology.Node{
				{Name: "a"}, {Name: "b"},
			},
			Cables: []topology.Cable{
				{Name: "short", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: length}}},
				{Name: "long", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: length * 2}}},
			},
		}
		ps, err1 := CableDeathProb(n, Uniform{P: p}, 150, 0)
		pl, err2 := CableDeathProb(n, Uniform{P: p}, 150, 1)
		return err1 == nil && err2 == nil && pl >= ps-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleCableDeathsFrequency(t *testing.T) {
	n := net()
	rng := xrand.New(7)
	const trials = 20000
	deaths := 0
	for i := 0; i < trials; i++ {
		dead, err := sampleCableDeaths(n, Uniform{P: 0.05}, 150, rng)
		if err != nil {
			t.Fatal(err)
		}
		if dead.Get(0) {
			deaths++
		}
		if dead.Get(3) {
			t.Fatal("repeater-free cable died")
		}
	}
	want, _ := CableDeathProb(n, Uniform{P: 0.05}, 150, 0)
	got := float64(deaths) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical death rate %v, want %v", got, want)
	}
}

func TestSampleCableDeathsSpacingError(t *testing.T) {
	if _, err := sampleCableDeaths(net(), Uniform{P: 0.5}, -1, xrand.New(1)); err != ErrBadSpacing {
		t.Errorf("reference sampler: err %v, want ErrBadSpacing", err)
	}
	if _, err := Compile(net(), Uniform{P: 0.5}, -1); err != ErrBadSpacing {
		t.Errorf("Compile: err %v, want ErrBadSpacing", err)
	}
}

// evaluate scores cables ids dead on n through a compiled plan.
func evaluate(t *testing.T, n *topology.Network, ids ...int) Outcome {
	t.Helper()
	plan, err := Compile(n, Uniform{}, 150)
	if err != nil {
		t.Fatal(err)
	}
	dead := plan.NewDead()
	for _, ci := range ids {
		dead.Set(ci)
	}
	return plan.Evaluate(dead)
}

func TestEvaluate(t *testing.T) {
	n := net()
	// Kill c1 and c3: miami and nyc lose both their cables.
	out := evaluate(t, n, 1, 3)
	if out.CablesFailed != 2 {
		t.Errorf("CablesFailed = %d", out.CablesFailed)
	}
	if math.Abs(out.CableFrac-0.5) > 1e-12 {
		t.Errorf("CableFrac = %v", out.CableFrac)
	}
	if out.NodesUnreachable != 2 {
		t.Errorf("NodesUnreachable = %d (nyc+miami)", out.NodesUnreachable)
	}
	if math.Abs(out.NodeFrac-2.0/6.0) > 1e-12 {
		t.Errorf("NodeFrac = %v", out.NodeFrac)
	}
}

func TestEvaluateNothingDead(t *testing.T) {
	n := net()
	out := evaluate(t, n)
	if out.CablesFailed != 0 || out.NodesUnreachable != 0 || out.CableFrac != 0 || out.NodeFrac != 0 {
		t.Errorf("clean network outcome = %+v", out)
	}
}

func TestEvaluateEmptyNetwork(t *testing.T) {
	n := &topology.Network{Name: "empty"}
	out := evaluate(t, n)
	if out.CableFrac != 0 || out.NodeFrac != 0 {
		t.Errorf("empty network outcome = %+v", out)
	}
}

func TestExpectedCableFrac(t *testing.T) {
	n := net()
	got, err := ExpectedCableFrac(n, Uniform{P: 1}, 150)
	if err != nil {
		t.Fatal(err)
	}
	// 3 of 4 cables have repeaters at 150km
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ExpectedCableFrac = %v, want 0.75", got)
	}
	if _, err := ExpectedCableFrac(n, Uniform{P: 1}, 0); err == nil {
		t.Error("want spacing error")
	}
	empty := &topology.Network{Name: "e"}
	if v, err := ExpectedCableFrac(empty, Uniform{P: 1}, 150); err != nil || v != 0 {
		t.Errorf("empty = %v, %v", v, err)
	}
}

func TestMonteCarloMatchesExpectation(t *testing.T) {
	// The sampled mean cable fraction converges to the analytic mean.
	n := net()
	m := S1()
	plan, err := Compile(n, m, 150)
	if err != nil {
		t.Fatal(err)
	}
	dead := plan.NewDead()
	rng := xrand.New(99)
	const trials = 5000
	sum := 0.0
	for i := 0; i < trials; i++ {
		plan.SampleDense(dead, rng)
		sum += plan.Evaluate(dead).CableFrac
	}
	want, _ := ExpectedCableFrac(n, m, 150)
	got := sum / trials
	if math.Abs(got-want) > 0.02 {
		t.Errorf("MC mean %v, analytic %v", got, want)
	}
}
