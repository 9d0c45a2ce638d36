package partition_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/partition"
	"gicnet/internal/topology"
	"gicnet/internal/verify"
	"gicnet/internal/xrand"
)

// sameBackhaul requires the screened backhaul search to pick the scan's
// node for every anchor.
func sameBackhaul(t *testing.T, label string, net *topology.Network, anchors []dataset.Anchor) {
	t.Helper()
	for _, a := range anchors {
		if got, want := partition.NearestOfCountry(net, a), partition.NearestOfCountryScan(net, a); got != want {
			t.Fatalf("%s, anchor %s: backhaul node %d, scan %d", label, a.Name, got, want)
		}
	}
}

// nearTieNetwork places nodes where the weighted haversine nearly ties
// for the anchor: within a micro-degree of its antipode, where the
// haversine is coarsest, or on one ring around it, with some exact
// duplicates, a mix of the anchor's country and others, and some nodes
// without coordinates.
func nearTieNetwork(rng *xrand.Source, a dataset.Anchor) *topology.Network {
	net := &topology.Network{Name: "near-tie-" + a.Name}
	antipodal := rng.Float64() < 0.5
	for k := 4 + rng.Intn(12); k > 0; k-- {
		var c geo.Coord
		if antipodal {
			b := rng.Range(0, 2*math.Pi)
			r := 1e-6 * rng.Float64()
			lon := a.Coord.Lon + 180 + r*math.Sin(b)
			for lon > 180 {
				lon -= 360
			}
			c = geo.Coord{Lat: -a.Coord.Lat + r*math.Cos(b), Lon: lon}
		} else {
			c = geo.Destination(a.Coord, rng.Range(0, 360), 300)
		}
		country := "zz"
		if rng.Float64() < 0.5 {
			country = a.Country
		}
		for dup := 1 + rng.Intn(2); dup > 0; dup-- {
			net.Nodes = append(net.Nodes, topology.Node{
				Name: fmt.Sprintf("n%d", len(net.Nodes)), Coord: c, Country: country,
				HasCoord: rng.Float64() < 0.9,
			})
		}
	}
	return net
}

// TestNearestOfCountryMatchesScan holds the screened backhaul search to
// the scan for every anchor: on the default world's submarine map, on the
// random networks of the downstream relations, and on near-tie networks.
func TestNearestOfCountryMatchesScan(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	anchors := dataset.Anchors()
	sameBackhaul(t, "default world", w.Submarine, anchors)
	for _, seed := range []uint64{1, 2, 3} {
		for _, net := range verify.RandomNetworks(seed) {
			sameBackhaul(t, fmt.Sprintf("seed %d %s", seed, net.Name), net, anchors)
		}
	}
	rng := xrand.New(31)
	for _, a := range anchors {
		for k := 0; k < 4; k++ {
			net := nearTieNetwork(rng, a)
			sameBackhaul(t, net.Name, net, []dataset.Anchor{a})
		}
	}
}

// requireExactBenefits prices every candidate of the probeA-probeB pair
// on net from trials base trials and holds the benefit of the top eight
// to the augmented-copy Monte Carlo (each candidate appended to a copy of
// net, the pair's survival there less its survival on net, over trials
// trials of another seed). The bound is 3 standard errors of the
// difference, with the two copies' survivals taken as independent, which
// overstates the variance of their difference.
func requireExactBenefits(t *testing.T, label string, net *topology.Network, m failure.Model, trials int, probeA, probeB string) {
	t.Helper()
	const seed, refSeed = 11, 12
	cands, err := partition.RecommendOn(net, m, 150, trials, seed, 0, 8, probeA, probeB)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	base, err := partition.PairSurvival(net, m, 150, trials, refSeed, probeA, probeB)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	n := float64(trials)
	for _, c := range cands {
		aug, err := partition.Augmented(net, c)
		if err != nil {
			t.Fatal(err)
		}
		after, err := partition.PairSurvival(aug, m, 150, trials, refSeed, probeA, probeB)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// The exact price is the mean of trials terms that are 0 or a
		// factor f <= 1 (the survival, or 1 for a landing on both sides),
		// whose variance f*B - B*B is at most B*(1-B).
		b := c.Benefit
		se := math.Sqrt((b*(1-b) + after*(1-after) + base*(1-base)) / n)
		if d := math.Abs(c.Benefit - (after - base)); d > 3*math.Max(se, 1/n) {
			t.Errorf("%s, %s-%s: exact benefit %.4f, augmented copy %.4f - %.4f = %.4f (3 s.e. = %.4f)",
				label, c.From, c.To, c.Benefit, after, base, after-base, 3*se)
		}
	}
}

// offshoreNetwork is a network on which a landing's own side decides the
// price: one cable joins a node deep in South America to one deep in
// Africa, and every country with a low-latitude anchor has an isolated
// node in the open South Pacific, so each anchor ties its landing into an
// ocean node of its own country, never into a probe node. A bridge from
// South America to Africa then reconnects the probes only through its
// landings.
func offshoreNetwork(t *testing.T) *topology.Network {
	t.Helper()
	net := &topology.Network{Name: "offshore", Nodes: []topology.Node{
		{Name: "zz-inland-sa-0", Coord: geo.Coord{Lat: -5, Lon: -60}, HasCoord: true, Country: "zz"},
		{Name: "zz-inland-af-0", Coord: geo.Coord{Lat: 15, Lon: 20}, HasCoord: true, Country: "zz"},
	}}
	net.Cables = []topology.Cable{{Name: "inland", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 8000}}, KnownLength: true}}
	pacific := geo.Coord{Lat: -50, Lon: -110}
	if r := geo.RegionOf(pacific); r != geo.RegionOcean {
		t.Fatalf("offshore point lies in %s", r)
	}
	seen := map[string]bool{}
	for _, a := range dataset.Anchors() {
		if a.Coord.AbsLat() < geo.MidBandCut && !seen[a.Country] {
			seen[a.Country] = true
			net.Nodes = append(net.Nodes, topology.Node{Name: a.Country + "-offshore-0", Coord: pacific, HasCoord: true, Country: a.Country})
		}
	}
	for _, a := range dataset.Anchors() {
		if n := partition.NearestOfCountry(net, a); a.Coord.AbsLat() < geo.MidBandCut && n < 2 {
			t.Fatalf("anchor %s ties into probe node %s", a.Name, net.Nodes[n].Name)
		}
	}
	return net
}

// TestExactBenefitMatchesAugmentedCopy runs the differential under S1
// (nz-us, the ext-bridges question), under S2 (sg-ke, which S2 cuts about
// half the time), on the random networks of the downstream relations
// under a uniform model, probing the regions of each network's first and
// last nodes, and on offshoreNetwork, where only the landings' own sides
// can bridge the probes.
func TestExactBenefitMatchesAugmentedCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("augmented-copy Monte Carlo skipped in short mode")
	}
	const trials = 4000
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	requireExactBenefits(t, "S1", w.Submarine, failure.S1(), trials, "nz", "us")
	requireExactBenefits(t, "S2", w.Submarine, failure.S2(), trials, "sg", "ke")
	for _, net := range verify.RandomNetworks(3) {
		a := "region:" + string(geo.RegionOf(net.Nodes[0].Coord))
		b := "region:" + string(geo.RegionOf(net.Nodes[len(net.Nodes)-1].Coord))
		if a != b {
			requireExactBenefits(t, net.Name, net, failure.Uniform{P: 0.02}, trials, a, b)
		}
	}
	requireOffshorePrices(t, trials)
}

// requireOffshorePrices runs the differential on offshoreNetwork and then
// prices every candidate there against its closed form: a bridge with one
// landing in South America and the other in Africa reconnects the probes
// in every cut trial it survives, so its benefit is its survival times the
// cut share of the same base trials, and every other bridge's is 0.
func requireOffshorePrices(t *testing.T, trials int) {
	t.Helper()
	const sa, af = "region:south-america", "region:africa"
	net, m := offshoreNetwork(t), failure.Uniform{P: 0.02}
	requireExactBenefits(t, "offshore", net, m, trials, sa, af)
	base, err := partition.PairSurvival(net, m, 150, trials, 11, sa, af)
	if err != nil {
		t.Fatal(err)
	}
	all, err := partition.RecommendOn(net, m, 150, trials, 11, 0, math.MaxInt, sa, af)
	if err != nil {
		t.Fatal(err)
	}
	bridging := 0
	for _, c := range all {
		from, _ := dataset.AnchorByName(c.From)
		to, _ := dataset.AnchorByName(c.To)
		ends := []geo.Region{geo.RegionOf(from.Coord), geo.RegionOf(to.Coord)}
		want := 0.0
		if slices.Contains(ends, geo.RegionSouthAmerica) && slices.Contains(ends, geo.RegionAfrica) {
			want = c.SurvivalProb * (1 - base)
			bridging++
		}
		if math.Abs(c.Benefit-want) > 1e-12 {
			t.Errorf("offshore, %s-%s: benefit %v, closed form %v", c.From, c.To, c.Benefit, want)
		}
	}
	if bridging == 0 || base == 1 {
		t.Fatalf("offshore: %d South America-Africa bridges, base survival %v", bridging, base)
	}
}

// TestRecommendNeverCutOrder asks about a pair that no trial can cut (gb
// lies in Europe): every benefit is 0, so the ranking falls to survival
// and then anchor names, and must return the same candidates in the same
// order at every worker budget and on every call.
func TestRecommendNeverCutOrder(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var first []partition.Candidate
	for _, workers := range []int{1, 4, 1, 4} {
		cands, err := partition.RecommendOn(w.Submarine, failure.S1(), 150, 130, 5, workers, n, "gb", "region:europe")
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != n {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(cands), n)
		}
		for i, c := range cands {
			if c.Benefit != 0 {
				t.Errorf("workers=%d: %s-%s benefit %v on a never-cut pair", workers, c.From, c.To, c.Benefit)
			}
			if i > 0 {
				p := cands[i-1]
				if p.SurvivalProb < c.SurvivalProb || (p.SurvivalProb == c.SurvivalProb && p.From+" "+p.To > c.From+" "+c.To) {
					t.Errorf("workers=%d: %s-%s ranked above %s-%s", workers, p.From, p.To, c.From, c.To)
				}
			}
		}
		if first == nil {
			first = cands
		} else if !slices.Equal(cands, first) {
			t.Errorf("workers=%d: %v, first call %v", workers, cands, first)
		}
	}
}
