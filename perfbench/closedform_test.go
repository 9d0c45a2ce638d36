package main

import (
	"math"
	"testing"

	"gicnet/internal/geo"
	"gicnet/internal/topology"
)

func TestDeathProb(t *testing.T) {
	cases := []struct{ p, r, want float64 }{
		{0.5, 0, 0},
		{0, 10, 0},
		{1, 1, 1},
		{0.5, 1, 0.5},
		{0.5, 3, 0.875},
		{0.1, 2, 0.19},
	}
	for _, c := range cases {
		if got := deathProb(c.p, c.r); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("deathProb(%g, %g) = %g, want %g", c.p, c.r, got, c.want)
		}
	}
	// No spacing is small enough to overflow the repeater count.
	if r := repeaters(5000, 1e-20); r < 4.9e23 || deathProb(0.01, r) != 1 {
		t.Errorf("repeaters(5000, 1e-20) = %g", r)
	}
}

// tailAtLeast2 must equal the brute-force sum over every outcome.
func TestTailAtLeast2MatchesEnumeration(t *testing.T) {
	q := []float64{0.3, 0.05, 0.5, 0.9, 1e-4}
	want := 0.0
	for mask := 0; mask < 1<<len(q); mask++ {
		p, dead := 1.0, 0
		for i, x := range q {
			if mask&(1<<i) != 0 {
				p *= x
				dead++
			} else {
				p *= 1 - x
			}
		}
		if dead >= 2 {
			want += p
		}
	}
	if got := tailAtLeast2(q); math.Abs(got-want) > 1e-15 {
		t.Errorf("tailAtLeast2 = %.17g, enumeration %.17g", got, want)
	}
	// Tiny tails keep their precision: two events of 1e-9 give 1e-18.
	if got := tailAtLeast2([]float64{1e-9, 1e-9}); math.Abs(got-1e-18) > 1e-30 {
		t.Errorf("tiny tail = %g", got)
	}
}

func TestCableFracMoments(t *testing.T) {
	mean, se := cableFracMoments([]float64{0, 1, 0.5, 0.5}, 100)
	if mean != 0.5 {
		t.Errorf("mean = %g", mean)
	}
	// Var per trial = (0.25+0.25)/16; se = sqrt(that)/10.
	if want := math.Sqrt(0.5) / 4 / 10; math.Abs(se-want) > 1e-15 {
		t.Errorf("se = %g, want %g", se, want)
	}
}

// tiny is a four-node line a-b-c-d plus a branching cable b-e, e-f.
func tiny() *topology.Network {
	return &topology.Network{
		Name: "tiny",
		Nodes: []topology.Node{
			{Name: "a", Country: "xa", HasCoord: true, Coord: geo.Coord{Lat: 10}},
			{Name: "b", Country: "xb", HasCoord: true, Coord: geo.Coord{Lat: 45}},
			{Name: "c", Country: "xc", HasCoord: true, Coord: geo.Coord{Lat: -20}},
			{Name: "d", Country: "xc", HasCoord: true, Coord: geo.Coord{Lat: 70}},
			{Name: "e", Country: "xa"},
			{Name: "f", Country: "xb"},
			{Name: "lonely", Country: "xa"},
		},
		Cables: []topology.Cable{
			{Name: "ab", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 250}}},
			{Name: "bc", Segments: []topology.Segment{{A: 1, B: 2, LengthKm: 99}}},
			{Name: "cd", Segments: []topology.Segment{{A: 2, B: 3, LengthKm: 300}}},
			{Name: "bef", Segments: []topology.Segment{{A: 1, B: 4, LengthKm: 60}, {A: 4, B: 5, LengthKm: 60}}},
		},
	}
}

func TestIsolatedByLoss(t *testing.T) {
	net := tiny()
	cases := []struct {
		lost []int
		want int
	}{
		{nil, 0},
		{[]int{0}, 1},          // a
		{[]int{3}, 2},          // e, f
		{[]int{1, 2}, 2},       // c loses bc and cd; d loses cd
		{[]int{0, 1, 2, 3}, 6}, // everything but the cable-less node
	}
	for _, c := range cases {
		lost := map[int]bool{}
		for _, ci := range c.lost {
			lost[ci] = true
		}
		if got := isolatedByLoss(net, lost); got != c.want {
			t.Errorf("lost %v: isolated %d, want %d", c.lost, got, c.want)
		}
	}
	if got := connectedNodes(net); got != 6 {
		t.Errorf("connected nodes = %d, want 6", got)
	}
}

func TestBandsAndTieredProbs(t *testing.T) {
	net := tiny()
	wantBands := []geo.Band{geo.BandMid, geo.BandMid, geo.BandHigh, geo.BandMid}
	for ci, want := range wantBands {
		if got, ok := cableBand(net, ci); !ok || got != want {
			t.Errorf("cable %d band %v (%v), want %v", ci, got, ok, want)
		}
	}
	probs := [geo.NumBands]float64{geo.BandLow: 0.01, geo.BandMid: 0.1, geo.BandHigh: 1}
	q := tieredProbs(net, probs, 100)
	want := []float64{deathProb(0.1, 2), 0, 1, deathProb(0.1, 1)}
	for ci := range want {
		if math.Abs(q[ci]-want[ci]) > 1e-15 {
			t.Errorf("cable %d death prob %g, want %g", ci, q[ci], want[ci])
		}
	}
}

func TestDirectAllDead(t *testing.T) {
	net := tiny()
	q := []float64{0.5, 0.2, 0.9, 0.3}
	// Country xb (b, f) to xc (c, d): only cable bc lands in both.
	if got := directAllDead(net, q, targetNodes(net, "xb"), targetNodes(net, "xc")); math.Abs(got-0.2) > 1e-15 {
		t.Errorf("xb-xc all dead %g, want 0.2", got)
	}
	// xa (a, e, lonely) to xb (b, f): cables ab and bef.
	if got := directAllDead(net, q, targetNodes(net, "xa"), targetNodes(net, "xb")); math.Abs(got-0.5*0.3) > 1e-15 {
		t.Errorf("xa-xb all dead %g", got)
	}
	// No shared cable: no direct connectivity.
	if got := directAllDead(net, q, targetNodes(net, "xa"), map[int]bool{3: true}); got != 1 {
		t.Errorf("a-d all dead %g, want 1", got)
	}
}

func TestBinomialTailAtLeast(t *testing.T) {
	// Binomial(4, 0.5): P(X >= 3) = 5/16.
	if got := binomialTailAtLeast(4, 3, 0.5); math.Abs(got-5.0/16) > 1e-12 {
		t.Errorf("P(Bin(4,.5) >= 3) = %g", got)
	}
	if got := binomialTailAtLeast(10, 0, 0.3); got != 1 {
		t.Errorf("P(X >= 0) = %g", got)
	}
	// One rare event in 800 trials at 3e-6 is unlikely but not
	// impossible; two hundred are impossible.
	if got := binomialTailAtLeast(800, 1, 3e-6); math.Abs(got-(1-math.Pow(1-3e-6, 800))) > 1e-12 {
		t.Errorf("P(Bin(800,3e-6) >= 1) = %g", got)
	}
	if got := binomialTailAtLeast(800, 200, 3e-6); got > 1e-300 {
		t.Errorf("P(Bin(800,3e-6) >= 200) = %g", got)
	}
}
