package routing

import (
	"errors"
	"math"
	"strings"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
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

func TestDefaultDemandsShape(t *testing.T) {
	ds := DefaultDemands()
	if len(ds) != 30 { // 6 regions, ordered pairs
		t.Fatalf("demands = %d, want 30", len(ds))
	}
	total := 0.0
	for _, d := range ds {
		if d.From == d.To {
			t.Error("intra-region demand present")
		}
		if d.Volume <= 0 {
			t.Errorf("demand %v-%v volume %v", d.From, d.To, d.Volume)
		}
		total += d.Volume
	}
	if total <= 0 || total > 1 {
		t.Errorf("total demand = %v", total)
	}
	// deterministic ordering
	ds2 := DefaultDemands()
	for i := range ds {
		if ds[i] != ds2[i] {
			t.Fatal("demand ordering not deterministic")
		}
	}
}

func TestRouteIntactNetwork(t *testing.T) {
	net := subNet(t)
	rep, err := Route(net, DefaultDemands(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StrandedFrac() > 0.01 {
		t.Errorf("intact network stranded %v of demand", rep.StrandedFrac())
	}
	loaded := 0
	for _, l := range rep.SegmentLoad {
		if l > 0 {
			loaded++
		}
	}
	if loaded == 0 {
		t.Fatal("no segment carries load")
	}
}

func TestRouteDeathVectorValidation(t *testing.T) {
	net := subNet(t)
	if _, err := Route(net, DefaultDemands(), graph.NewBitset(3)); !errors.Is(err, topology.ErrDeadSet) {
		t.Errorf("err %v, want topology.ErrDeadSet", err)
	}
}

// TestRouteRefusesBadInput: a segment naming a node the network does not
// have used to panic with an index out of range inside gatewaysByRegion.
// Route refuses it, a nil network and a dead set of the wrong length with
// ErrBadInput, wrapping the cause.
func TestRouteRefusesBadInput(t *testing.T) {
	dangling := &topology.Network{
		Name: "dangling",
		Nodes: []topology.Node{
			{Name: "a", Coord: geo.Coord{Lat: 40, Lon: -70}, HasCoord: true},
			{Name: "b", Coord: geo.Coord{Lat: 50, Lon: -5}, HasCoord: true},
		},
		Cables: []topology.Cable{{Name: "c", Segments: []topology.Segment{{A: 0, B: 7, LengthKm: 5000}}}},
	}
	rep, err := Route(dangling, DefaultDemands(), nil)
	if rep != nil || !errors.Is(err, ErrBadInput) || !errors.Is(err, topology.ErrDanglingSegment) {
		t.Errorf("dangling segment: report %v, err %v; want ErrBadInput wrapping ErrDanglingSegment", rep, err)
	}
	if _, err := Route(nil, DefaultDemands(), nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil network: err %v, want ErrBadInput", err)
	}
	if _, err := Route(subNet(t), DefaultDemands(), graph.NewBitset(3)); !errors.Is(err, ErrBadInput) {
		t.Errorf("short dead set: err %v, want ErrBadInput", err)
	}
}

func TestRouteTotalFailureStrandsEverything(t *testing.T) {
	net := subNet(t)
	dead := graph.NewBitset(len(net.Cables))
	dead.SetRange(0, len(net.Cables))
	rep, err := Route(net, DefaultDemands(), dead)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.StrandedFrac()-1) > 1e-9 {
		t.Errorf("stranded = %v, want 1", rep.StrandedFrac())
	}
}

func TestNewYorkFailureShiftsLoadWest(t *testing.T) {
	// The §5.5 scenario: kill every cable landing in the New York area
	// and watch transatlantic demand shift onto other paths.
	net := subNet(t)
	var nyNodes []int
	for i, nd := range net.Nodes {
		if strings.Contains(nd.Name, "new-york") || strings.Contains(nd.Name, "long-island") ||
			strings.Contains(nd.Name, "wall-nj") {
			nyNodes = append(nyNodes, i)
		}
	}
	if len(nyNodes) == 0 {
		t.Fatal("no NY landing points")
	}
	dead := graph.NewBitset(len(net.Cables))
	for _, ci := range net.CablesTouching(nyNodes) {
		dead.Set(ci)
	}

	before, err := Route(net, DefaultDemands(), nil)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Route(net, DefaultDemands(), dead)
	if err != nil {
		t.Fatal(err)
	}
	// Traffic still mostly routable (alternate paths exist)...
	if after.StrandedFrac() > 0.3 {
		t.Errorf("stranded after NY failure = %v", after.StrandedFrac())
	}
	// ...but load shifted onto surviving cables.
	shifts, err := CompareLoads(net, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(shifts) == 0 {
		t.Fatal("no cable gained load after NY failure")
	}
	// The biggest gainers must not be NY cables (they are dead).
	deadNames := map[string]bool{}
	for ci := range net.Cables {
		if dead.Get(ci) {
			deadNames[net.Cables[ci].Name] = true
		}
	}
	for _, s := range shifts[:min(5, len(shifts))] {
		if deadNames[s.Cable] {
			t.Errorf("dead cable %q gained load", s.Cable)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCompareLoadsMismatch(t *testing.T) {
	net := subNet(t)
	a := &Report{SegmentLoad: []float64{1}, SegmentCable: []int{0}}
	b := &Report{SegmentLoad: []float64{1, 2}, SegmentCable: []int{0, 0}}
	if _, err := CompareLoads(net, a, b); err == nil {
		t.Error("want shape error")
	}
}

func TestShiftRatio(t *testing.T) {
	if r := (Shift{Before: 2, After: 3}).Ratio(); math.Abs(r-1.5) > 1e-12 {
		t.Errorf("ratio = %v", r)
	}
	if r := (Shift{Before: 0, After: 0}).Ratio(); r != 1 {
		t.Errorf("0/0 ratio = %v", r)
	}
	if r := (Shift{Before: 0, After: 1}).Ratio(); r < 1e8 {
		t.Errorf("new-load ratio = %v", r)
	}
}

func TestOverloadedCables(t *testing.T) {
	shifts := []Shift{
		{Cable: "a", Before: 1, After: 3},   // 3x
		{Cable: "b", Before: 1, After: 1.5}, // 1.5x
		{Cable: "c", Before: 0, After: 5},   // fresh load: not "overloaded"
	}
	got := OverloadedCables(shifts, 2)
	if len(got) != 1 || got[0].Cable != "a" {
		t.Errorf("overloaded = %v", got)
	}
}

func TestRouteSyntheticTriangle(t *testing.T) {
	// Three regions, direct path vs long detour: intact routing uses the
	// short edge; killing it diverts to the detour.
	net := &topology.Network{
		Name: "tri",
		Nodes: []topology.Node{
			{Name: "na", Coord: geo.Coord{Lat: 41, Lon: -74}, HasCoord: true},
			{Name: "eu", Coord: geo.Coord{Lat: 51, Lon: 0}, HasCoord: true},
			{Name: "sa", Coord: geo.Coord{Lat: -23, Lon: -46}, HasCoord: true},
		},
		Cables: []topology.Cable{
			{Name: "direct", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 6000}}},
			{Name: "na-sa", Segments: []topology.Segment{{A: 0, B: 2, LengthKm: 8000}}},
			{Name: "sa-eu", Segments: []topology.Segment{{A: 2, B: 1, LengthKm: 9000}}},
		},
	}
	demand := []Demand{{From: geo.RegionNorthAmerica, To: geo.RegionEurope, Volume: 1}}
	before, err := Route(net, demand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.SegmentLoad[0] != 1 || before.SegmentLoad[1] != 0 {
		t.Errorf("intact loads = %v", before.SegmentLoad)
	}
	direct := graph.NewBitset(len(net.Cables))
	direct.Set(0)
	after, err := Route(net, demand, direct)
	if err != nil {
		t.Fatal(err)
	}
	if after.SegmentLoad[1] != 1 || after.SegmentLoad[2] != 1 {
		t.Errorf("detour loads = %v", after.SegmentLoad)
	}
	if after.StrandedFrac() != 0 {
		t.Errorf("stranded = %v", after.StrandedFrac())
	}
	shifts, err := CompareLoads(net, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(shifts) != 2 {
		t.Errorf("shifts = %v", shifts)
	}
}

// TestRegionSharesZeroDemand is the regression for the zero-demand edge:
// a demand matrix with no positive volume must yield the typed
// ErrZeroDemand instead of NaN shares.
func TestRegionSharesZeroDemand(t *testing.T) {
	for _, demands := range [][]Demand{
		nil,
		{},
		{{From: geo.RegionEurope, To: geo.RegionAsia, Volume: 0}},
		{{From: geo.RegionEurope, To: geo.RegionAsia, Volume: -3}},
	} {
		shares, err := RegionShares(demands)
		if !errors.Is(err, ErrZeroDemand) {
			t.Fatalf("demands %v: err = %v, want ErrZeroDemand", demands, err)
		}
		if shares != nil {
			t.Fatalf("demands %v: got shares %v alongside the error", demands, shares)
		}
	}
}

// TestRegionSharesNormalized checks the happy path: shares sum to one,
// every share is finite and positive, and negative/zero rows are ignored.
func TestRegionSharesNormalized(t *testing.T) {
	demands := append(DefaultDemands(), Demand{From: geo.RegionOceania, To: geo.RegionAsia, Volume: -1})
	shares, err := RegionShares(demands)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for r, s := range shares {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("region %s share %v not a positive finite number", r, s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

// TestDefaultDemandsPinnedOrder pins the demand matrix element-by-element.
// DefaultDemands feeds the serving and cross-layer fingerprint paths, so
// its output must come from source order, never from map iteration; this
// test locks the exact sequence (sorted by From, then To, over the string
// region names) and the exact weights so a regression back to a map-built
// table cannot land silently.
func TestDefaultDemandsPinnedOrder(t *testing.T) {
	ds := DefaultDemands()
	if len(ds) != 30 {
		t.Fatalf("demands = %d, want 30", len(ds))
	}
	// Sorted region order is alphabetical on the string values.
	regions := []geo.Region{
		geo.RegionAfrica, geo.RegionAsia, geo.RegionEurope,
		geo.RegionNorthAmerica, geo.RegionOceania, geo.RegionSouthAmerica,
	}
	weights := map[geo.Region]float64{
		geo.RegionNorthAmerica: 0.30, geo.RegionEurope: 0.27, geo.RegionAsia: 0.25,
		geo.RegionSouthAmerica: 0.08, geo.RegionAfrica: 0.05, geo.RegionOceania: 0.05,
	}
	i := 0
	total := 0.0
	for _, from := range regions {
		for _, to := range regions {
			if from == to {
				continue
			}
			want := Demand{From: from, To: to, Volume: weights[from] * weights[to]}
			if ds[i] != want {
				t.Fatalf("demand[%d] = %+v, want %+v", i, ds[i], want)
			}
			total += ds[i].Volume
			i++
		}
	}
	// (sum w)^2 - sum w^2 with sum w = 1: 1 - 0.2368.
	if math.Abs(total-0.7632) > 1e-12 {
		t.Fatalf("total volume = %v, want 0.7632", total)
	}
}
