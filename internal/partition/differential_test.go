package partition_test

import (
	"fmt"
	"math"
	"testing"

	"gicnet/internal/dataset"
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
