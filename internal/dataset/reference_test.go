package dataset

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gicnet/internal/geo"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// generateSubmarineScan is GenerateSubmarine as it was before the screen:
// each branch sorts every used node by haversine and rescans every cable
// for the nearest one hosting a procedural cable, and each bridge merge
// relabels the components on a fresh graph projection and rebuilds the
// host table from every cable. Where the old branch sort left exact ties
// unordered, this reference orders them by node index. The differential
// test holds GenerateSubmarine to it.
func generateSubmarineScan(cfg SubmarineConfig, rng *xrand.Source) (*topology.Network, error) {
	b := newSubmarineBuilder(cfg, rng)
	b.addTrunks()
	b.addRegionalCables()
	for len(b.net.Nodes) < b.cfg.LandingPoints {
		idx := b.newLandingPoint(anchors[b.rng.Pick(b.weights)].Name, false)
		attachAsBranchScan(b, idx)
	}
	for i := range b.net.Nodes {
		if !b.used[i] {
			attachAsBranchScan(b, i)
		}
	}
	bridgeComponentsScan(b)
	b.markUnknownLengths()
	if err := b.net.Validate(); err != nil {
		return nil, err
	}
	return b.net, nil
}

func attachAsBranchScan(b *submarineBuilder, idx int) {
	type cand struct {
		node int
		d    float64
	}
	var cands []cand
	for j := range b.net.Nodes {
		if j == idx || !b.used[j] {
			continue
		}
		cands = append(cands, cand{j, geo.Haversine(b.net.Nodes[idx].Coord, b.net.Nodes[j].Coord)})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	for _, c := range cands {
		var regular []int
		for ci := TrunkCount(); ci < len(b.net.Cables); ci++ {
			for _, s := range b.net.Cables[ci].Segments {
				if s.A == c.node || s.B == c.node {
					regular = append(regular, ci)
					break
				}
			}
		}
		if len(regular) == 0 {
			continue
		}
		ci := regular[b.rng.Intn(len(regular))]
		length := c.d * b.cfg.DetourFactor
		if length < 30 {
			length = 30 + b.rng.Range(0, 40)
		}
		b.net.Cables[ci].Segments = append(b.net.Cables[ci].Segments, topology.Segment{
			A: c.node, B: idx, LengthKm: length,
		})
		b.used[idx] = true
		return
	}
}

func bridgeComponentsScan(b *submarineBuilder) {
	nn := len(b.net.Nodes)
	bestD := make([]float64, nn)
	bestJ := make([]int, nn)
	for i := range bestD {
		bestD[i] = math.Inf(1)
		bestJ[i] = -1
	}
	wasGiant := make([]bool, nn)
	host := make([]int, nn)
	for iter := 0; iter < nn; iter++ {
		tmp := &topology.Network{Name: b.net.Name, Nodes: b.net.Nodes, Cables: b.net.Cables}
		labels, count := tmp.Graph().Components(nil)
		if count <= 1 {
			return
		}
		sizes := make([]int, count)
		for _, l := range labels {
			sizes[l]++
		}
		giant := 0
		for l, s := range sizes {
			if s > sizes[giant] {
				giant = l
			}
		}
		for i := range host {
			host[i] = -1
		}
		for ci := TrunkCount(); ci < len(b.net.Cables); ci++ {
			for _, s := range b.net.Cables[ci].Segments {
				host[s.A] = ci
				host[s.B] = ci
			}
		}
		for j := 0; j < nn; j++ {
			if labels[j] != giant || wasGiant[j] {
				continue
			}
			wasGiant[j] = true
			if host[j] < 0 {
				continue
			}
			for i := 0; i < nn; i++ {
				if labels[i] == giant {
					continue
				}
				d := geo.Haversine(b.net.Nodes[i].Coord, b.net.Nodes[j].Coord)
				if d < bestD[i] || (d == bestD[i] && j < bestJ[i]) {
					bestD[i], bestJ[i] = d, j
				}
			}
		}
		bd, ba := math.Inf(1), -1
		for i := 0; i < nn; i++ {
			if labels[i] == giant || bestJ[i] < 0 {
				continue
			}
			if bestD[i] < bd {
				bd, ba = bestD[i], i
			}
		}
		if ba < 0 {
			return
		}
		bj := bestJ[ba]
		b.net.Cables[host[bj]].Segments = append(b.net.Cables[host[bj]].Segments, topology.Segment{
			A: bj, B: ba, LengthKm: bd * b.cfg.DetourFactor,
		})
	}
}

// TestGenerateSubmarineMatchesScan generates submarine maps of several
// shapes, from a few large components to many small ones, with the
// screened generator and with the scan reference, and requires the same
// network bit for bit.
func TestGenerateSubmarineMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("reference generator skipped in short mode")
	}
	shapes := []func(*SubmarineConfig){
		func(c *SubmarineConfig) {},
		func(c *SubmarineConfig) { c.Cables, c.LandingPoints = 200, 500 },
		func(c *SubmarineConfig) { c.Cables, c.LandingPoints, c.LocalCableFrac = 250, 700, 0.9 },
		func(c *SubmarineConfig) { c.Cables, c.LandingPoints, c.LocalCableFrac = 300, 400, 0.1 },
		func(c *SubmarineConfig) { c.Cables, c.LandingPoints, c.NorthBias = 150, 900, 4 },
	}
	for si, shape := range shapes {
		for _, seed := range []uint64{3, 77} {
			cfg := DefaultSubmarineConfig()
			shape(&cfg)
			got, err := GenerateSubmarine(cfg, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err := generateSubmarineScan(cfg, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
				t.Errorf("shape %d seed %d: fingerprint %016x, scan %016x (%s)", si, seed, g, w, describe(got, want))
			}
		}
	}
}

// describe names the first difference between two networks.
func describe(got, want *topology.Network) string {
	if len(got.Nodes) != len(want.Nodes) || len(got.Cables) != len(want.Cables) {
		return fmt.Sprintf("%d nodes and %d cables, scan %d and %d", len(got.Nodes), len(got.Cables), len(want.Nodes), len(want.Cables))
	}
	for ci := range want.Cables {
		g, w := got.Cables[ci].Segments, want.Cables[ci].Segments
		if len(g) != len(w) {
			return fmt.Sprintf("cable %d has %d segments, scan %d", ci, len(g), len(w))
		}
		for k := range w {
			if g[k] != w[k] {
				return fmt.Sprintf("cable %d segment %d is %+v, scan %+v", ci, k, g[k], w[k])
			}
		}
	}
	return "same segments"
}
