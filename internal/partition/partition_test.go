package partition

import (
	"errors"
	"fmt"
	"testing"

	"gicnet/internal/core"
	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

func world(t *testing.T) *dataset.World {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAnalyzeNoFailures(t *testing.T) {
	net := world(t).Submarine
	f, err := Analyze(net, graph.NewBitset(len(net.Cables)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Components != 1 {
		t.Errorf("intact network components = %d, want 1", f.Components)
	}
	if f.LargestFrac != 1 {
		t.Errorf("largest frac = %v", f.LargestFrac)
	}
	if f.IsolatedNodes != 0 {
		t.Errorf("isolated = %d", f.IsolatedNodes)
	}
	for r, n := range f.RegionSplit {
		if n != 1 {
			t.Errorf("region %v split into %d components on intact network", r, n)
		}
	}
}

func TestAnalyzeAllDead(t *testing.T) {
	net := world(t).Submarine
	dead := graph.NewBitset(len(net.Cables))
	dead.SetRange(0, len(net.Cables))
	f, err := Analyze(net, dead)
	if err != nil {
		t.Fatal(err)
	}
	if f.Components != 0 {
		t.Errorf("all-dead components = %d, want 0", f.Components)
	}
	if f.IsolatedNodes != len(net.Nodes) {
		t.Errorf("isolated = %d, want all %d", f.IsolatedNodes, len(net.Nodes))
	}
}

func TestAnalyzeLengthMismatch(t *testing.T) {
	net := world(t).Submarine
	if _, err := Analyze(net, graph.NewBitset(3)); !errors.Is(err, topology.ErrDeadSet) {
		t.Errorf("err %v, want topology.ErrDeadSet", err)
	}
}

// averageFragmentation averages Analyze over trials realisations of m,
// trial ti drawn from SplitAt(ti) of seed.
func averageFragmentation(t *testing.T, net *topology.Network, m failure.Model, trials int, seed uint64) (components, largestFrac, isolated float64) {
	t.Helper()
	plan, err := failure.Compile(net, m, 150)
	if err != nil {
		t.Fatal(err)
	}
	root := xrand.New(seed)
	dead := plan.NewDead()
	for ti := 0; ti < trials; ti++ {
		rng := root.SplitAt(uint64(ti))
		plan.SampleInto(dead, &rng)
		f, err := Analyze(net, dead)
		if err != nil {
			t.Fatal(err)
		}
		components += float64(f.Components)
		largestFrac += f.LargestFrac
		isolated += float64(f.IsolatedNodes)
	}
	n := float64(trials)
	return components / n, largestFrac / n, isolated / n
}

func TestFragmentationS1FragmentsMore(t *testing.T) {
	net := world(t).Submarine
	c1, l1, i1 := averageFragmentation(t, net, failure.S1(), 12, 5)
	c2, l2, i2 := averageFragmentation(t, net, failure.S2(), 12, 5)
	if c1 < c2 {
		t.Errorf("S1 components (%v) should be >= S2 (%v)", c1, c2)
	}
	if l1 > l2 {
		t.Errorf("S1 largest frac (%v) should be <= S2 (%v)", l1, l2)
	}
	if i1 <= i2 {
		t.Errorf("S1 isolated (%v) should exceed S2 (%v)", i1, i2)
	}
}

func TestRecommendLowLatitudeBridges(t *testing.T) {
	if testing.Short() {
		t.Skip("candidate search over the full topology skipped in short mode")
	}
	w := world(t)
	cands, err := Recommend(w, failure.S1(), 150, 30, 7, 5, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates recommended")
	}
	for _, c := range cands {
		if c.MaxAbsLat >= geo.MidBandCut {
			t.Errorf("candidate %s-%s reaches %v degrees; must stay low-latitude", c.From, c.To, c.MaxAbsLat)
		}
		if c.SurvivalProb <= 0 || c.SurvivalProb > 1 {
			t.Errorf("candidate survival = %v", c.SurvivalProb)
		}
	}
	// ranked by benefit
	for i := 1; i < len(cands); i++ {
		if cands[i].Benefit > cands[i-1].Benefit+1e-12 {
			t.Error("candidates not ranked by benefit")
			break
		}
	}
	if _, err := Recommend(w, failure.S1(), 150, 5, 7, 0, "us", "gb"); err == nil {
		t.Error("want n error")
	}
	if _, err := Recommend(w, failure.S1(), 150, 5, 7, 3, "us", "zz"); !errors.Is(err, core.ErrEmptyTarget) {
		t.Errorf("unknown probe: err = %v, want a wrapped core.ErrEmptyTarget", err)
	}
}

func TestCompareAugmentationHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("before/after augmentation Monte Carlo skipped in short mode")
	}
	w := world(t)
	cands, err := Recommend(w, failure.S1(), 150, 30, 9, 3, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	_, before, _ := averageFragmentation(t, w.Submarine, failure.S1(), 12, 9)
	augmented := w.Submarine
	for i, c := range cands {
		from, _ := dataset.AnchorByName(c.From)
		to, _ := dataset.AnchorByName(c.To)
		units := unitVecs(augmented)
		nearFrom, nearTo := nearestOfCountry(augmented, units, from), nearestOfCountry(augmented, units, to)
		if augmented, err = withCandidate(augmented, c, nearFrom, nearTo); err != nil {
			t.Fatal(err)
		}
		// Candidates may share an anchor; Analyze refuses the duplicate
		// landing names stacking them would leave.
		for k := len(augmented.Nodes) - 2; k < len(augmented.Nodes); k++ {
			augmented.Nodes[k].Name += fmt.Sprintf("#%d", i)
		}
	}
	_, after, _ := averageFragmentation(t, augmented, failure.S1(), 12, 9)
	// Adding surviving low-latitude links must not fragment things more.
	if after < before-0.02 {
		t.Errorf("augmentation reduced largest component: %v -> %v", before, after)
	}
}

func TestPairSurvivalTargets(t *testing.T) {
	net := world(t).Submarine
	if _, err := pairSurvival(net, failure.S2(), 150, 5, 1, "zz", "us"); err == nil {
		t.Error("want unknown target error")
	}
	p, err := pairSurvival(net, failure.Uniform{P: 0}, 150, 5, 1, "us", "region:europe")
	if err != nil || p != 1 {
		t.Errorf("no-failure survival = %v, %v", p, err)
	}
}

func TestWithCandidateDoesNotMutateOriginal(t *testing.T) {
	net := world(t).Submarine
	nodesBefore, cablesBefore := len(net.Nodes), len(net.Cables)
	c := Candidate{From: "fortaleza", To: "lagos", LengthKm: 6000}
	aug, err := withCandidate(net, c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) != nodesBefore || len(net.Cables) != cablesBefore {
		t.Error("original network mutated")
	}
	if len(aug.Nodes) != nodesBefore+2 || len(aug.Cables) != cablesBefore+1 {
		t.Errorf("augmented shape: %d nodes, %d cables", len(aug.Nodes), len(aug.Cables))
	}
	if err := aug.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := withCandidate(net, Candidate{From: "atlantis", To: "lagos"}, 0, 1); err == nil {
		t.Error("want unknown anchor error")
	}
}

func TestAnalyzeSyntheticPartition(t *testing.T) {
	// A hand-built network split into two parts when the bridge dies.
	net := &topology.Network{
		Name: "mini",
		Nodes: []topology.Node{
			{Name: "a1", Coord: geo.Coord{Lat: 50, Lon: 0}, HasCoord: true},
			{Name: "a2", Coord: geo.Coord{Lat: 51, Lon: 1}, HasCoord: true},
			{Name: "b1", Coord: geo.Coord{Lat: -20, Lon: -60}, HasCoord: true},
			{Name: "b2", Coord: geo.Coord{Lat: -21, Lon: -59}, HasCoord: true},
		},
		Cables: []topology.Cable{
			{Name: "a", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 100}}},
			{Name: "b", Segments: []topology.Segment{{A: 2, B: 3, LengthKm: 100}}},
			{Name: "bridge", Segments: []topology.Segment{{A: 1, B: 2, LengthKm: 9000}}},
		},
	}
	bridge := graph.NewBitset(len(net.Cables))
	bridge.Set(2)
	f, err := Analyze(net, bridge)
	if err != nil {
		t.Fatal(err)
	}
	if f.Components != 2 {
		t.Errorf("components = %d, want 2", f.Components)
	}
	if f.LargestFrac != 0.5 {
		t.Errorf("largest frac = %v, want 0.5", f.LargestFrac)
	}
	if f.RegionSplit[geo.RegionEurope] != 1 || f.RegionSplit[geo.RegionSouthAmerica] != 1 {
		t.Errorf("region split = %v", f.RegionSplit)
	}
}
