package crosslayer

import (
	"fmt"
	"math"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/routing"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// nearestCandidatesScan is the AS attachment as it was before the screen:
// the spherical law of cosines against every candidate for every AS,
// ties to the lowest node index. The differential tests and
// FuzzCableASAdjacency hold nearestCandidates to it.
func nearestCandidatesScan(net *topology.Network, cand []int32, cat *dataset.RouterCatalog) []int {
	sinLat := make([]float64, len(cand))
	cosLat := make([]float64, len(cand))
	lon := make([]float64, len(cand))
	for i, ni := range cand {
		la := net.Nodes[ni].Coord.Lat * math.Pi / 180
		sinLat[i] = math.Sin(la)
		cosLat[i] = math.Cos(la)
		lon[i] = net.Nodes[ni].Coord.Lon * math.Pi / 180
	}
	out := make([]int, len(cat.ASes))
	for i := range cat.ASes {
		home := cat.ASes[i].Home
		la := home.Lat * math.Pi / 180
		lo := home.Lon * math.Pi / 180
		sa, ca := math.Sin(la), math.Cos(la)
		best, bestCos := 0, -2.0
		for j := range cand {
			c := sa*sinLat[j] + ca*cosLat[j]*math.Cos(lo-lon[j])
			if c > bestCos {
				bestCos = c
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// sameAsScan compiles net and cat with the screened attachment and with
// the scan, and requires the same site for every node, the same anchor,
// and bit-identical scores for the intact network and every dead mask.
// A world both reject must fail with the same error.
func sameAsScan(net *topology.Network, cat *dataset.RouterCatalog, demands []routing.Demand, masks []graph.Bitset) error {
	got, err := Compile(net, cat, demands)
	want, wantErr := compile(net, cat, demands, nearestCandidatesScan)
	if err != nil || wantErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			return fmt.Errorf("compile errors differ: %v, scan %v", err, wantErr)
		}
		return nil
	}
	for n := range net.Nodes {
		if g, w := got.SiteOf(n), want.SiteOf(n); g != w {
			return fmt.Errorf("node %d: site %d, scan %d", n, g, w)
		}
	}
	if got.anchor != want.anchor {
		return fmt.Errorf("anchor node %d, scan %d", got.anchor, want.anchor)
	}
	if !scoresBitIdentical(got.Intact(), want.Intact()) {
		return fmt.Errorf("intact score %+v, scan %+v", got.Intact(), want.Intact())
	}
	var gs, ws Scratch
	gs.Grow(got)
	ws.Grow(want)
	for k, dead := range masks {
		if g, w := got.ScoreDead(dead, &gs), want.ScoreDead(dead, &ws); !scoresBitIdentical(g, w) {
			return fmt.Errorf("mask %d: score %+v, scan %+v", k, g, w)
		}
	}
	return nil
}

// randomMasks draws n dead-cable masks with a random death share each.
func randomMasks(rng *xrand.Source, numCables, n int) []graph.Bitset {
	masks := make([]graph.Bitset, n)
	for k := range masks {
		masks[k] = graph.NewBitset(numCables)
		p := rng.Float64()
		for ci := 0; ci < numCables; ci++ {
			if rng.Float64() < p {
				masks[k].Set(ci)
			}
		}
	}
	return masks
}

// wrapLon folds a longitude into [-180, 180].
func wrapLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// nearTieWorld builds a world whose nearest-candidate choices are as
// close to ties as floats allow. Either every candidate sits within a
// micro-degree of the antipode of an AS home, where a whole cluster's
// cosines round to the same few values, or candidates ring each home at
// one distance. Some candidates are exact duplicates, so exact ties
// occur and only the lowest-index rule separates them.
func nearTieWorld(rng *xrand.Source) (*topology.Network, *dataset.RouterCatalog) {
	net := &topology.Network{Name: "near-tie"}
	add := func(c geo.Coord) {
		net.Nodes = append(net.Nodes, topology.Node{
			Name: fmt.Sprintf("n%d", len(net.Nodes)), Coord: c, HasCoord: true, Country: "xx",
		})
		if rng.Float64() < 0.3 {
			net.Nodes = append(net.Nodes, topology.Node{
				Name: fmt.Sprintf("n%d", len(net.Nodes)), Coord: c, HasCoord: true, Country: "xx",
			})
		}
	}
	cat := &dataset.RouterCatalog{}
	antipodal := rng.Float64() < 0.5
	for h := 1 + rng.Intn(3); h > 0; h-- {
		home := geo.Coord{Lat: rng.Range(-80, 80), Lon: rng.Range(-180, 180)}
		if rng.Float64() < 0.2 {
			home.Lon = 180 // candidates straddle the antimeridian
		}
		cat.ASes = append(cat.ASes, dataset.AS{ASN: 64512 + len(cat.ASes), Home: home, Routers: []geo.Coord{home}})
		for k := 2 + rng.Intn(8); k > 0; k-- {
			if antipodal {
				b := rng.Range(0, 2*math.Pi)
				r := 1e-6 * rng.Float64()
				add(geo.Coord{Lat: -home.Lat + r*math.Cos(b), Lon: wrapLon(home.Lon + 180 + r*math.Sin(b))})
			} else {
				add(geo.Destination(home, rng.Range(0, 360), 250))
			}
		}
	}
	cable := topology.Cable{Name: "chain", KnownLength: true}
	for i := 0; i+1 < len(net.Nodes); i++ {
		cable.Segments = append(cable.Segments, topology.Segment{A: i, B: i + 1, LengthKm: 100})
	}
	if len(net.Nodes) == 1 {
		cable.Segments = append(cable.Segments, topology.Segment{A: 0, B: 0, LengthKm: 1})
	}
	net.Cables = append(net.Cables, cable)
	return net, cat
}

// TestAttachMatchesScan holds the screened AS attachment to the
// all-pairs scan on the default world's located networks with sampled
// storm damage, on random worlds, and on near-tie worlds.
func TestAttachMatchesScan(t *testing.T) {
	demands := routing.DefaultDemands()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*topology.Network{w.Submarine, w.Intertubes} {
		plan, err := failure.Compile(net, failure.S1(), 150)
		if err != nil {
			t.Fatal(err)
		}
		root := xrand.New(7)
		var batch failure.BatchScratch
		batch.Grow(plan)
		plan.SampleBatch(&batch, root, 0, 16)
		masks := make([]graph.Bitset, 16)
		for b := range masks {
			masks[b] = batch.Row(b)
		}
		if err := sameAsScan(net, w.Routers, demands, masks); err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
	}
	for wi := 0; wi < 200; wi++ {
		rng := xrand.New(uint64(9000 + wi))
		net, cat := randomWorld(rng)
		if err := sameAsScan(net, cat, demands, randomMasks(rng, len(net.Cables), 4)); err != nil {
			t.Fatalf("random world %d: %v", wi, err)
		}
	}
	for wi := 0; wi < 300; wi++ {
		rng := xrand.New(uint64(12000 + wi))
		net, cat := nearTieWorld(rng)
		if err := sameAsScan(net, cat, demands, nil); err != nil {
			t.Fatalf("near-tie world %d: %v", wi, err)
		}
		cand := make([]int32, len(net.Nodes))
		for i := range cand {
			cand[i] = int32(i)
		}
		got, want := nearestCandidates(net, cand, cat), nearestCandidatesScan(net, cand, cat)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("near-tie world %d AS %d: candidate %d, scan %d", wi, i, got[i], want[i])
			}
		}
	}
}
