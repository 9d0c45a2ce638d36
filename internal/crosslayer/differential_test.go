package crosslayer

import (
	"fmt"
	"math"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/population"
	"gicnet/internal/routing"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// randomWorld synthesises a small random network and AS catalog. Shared
// by the differential harness and the fuzz seed corpus.
func randomWorld(rng *xrand.Source) (*topology.Network, *dataset.RouterCatalog) {
	numNodes := 2 + rng.Intn(30)
	net := &topology.Network{Name: "rand"}
	for i := 0; i < numNodes; i++ {
		net.Nodes = append(net.Nodes, topology.Node{
			Name:     fmt.Sprintf("n%d", i),
			Coord:    geo.Coord{Lat: rng.Range(-80, 80), Lon: rng.Range(-180, 180)},
			HasCoord: rng.Float64() > 0.1,
			Country:  "xx",
		})
	}
	numCables := 1 + rng.Intn(40)
	for c := 0; c < numCables; c++ {
		cable := topology.Cable{Name: fmt.Sprintf("c%d", c), KnownLength: true}
		segs := 1 + rng.Intn(3)
		for s := 0; s < segs; s++ {
			cable.Segments = append(cable.Segments, topology.Segment{
				A:        rng.Intn(numNodes),
				B:        rng.Intn(numNodes), // self-loops allowed on purpose
				LengthKm: rng.Range(1, 5000),
			})
		}
		net.Cables = append(net.Cables, cable)
	}
	numAS := 1 + rng.Intn(40)
	cat := &dataset.RouterCatalog{}
	for a := 0; a < numAS; a++ {
		home := geo.Coord{Lat: rng.Range(-80, 80), Lon: rng.Range(-180, 180)}
		cat.ASes = append(cat.ASes, dataset.AS{
			ASN: 64512 + a, Home: home, Routers: []geo.Coord{home},
		})
	}
	return net, cat
}

// refScore is the naive reference: attach ASes by geo.Haversine argmin,
// rebuild the severed adjacency from alive cables' segments, BFS the
// components, and count. No CSRs, no union-find, no bit tricks.
type refScore struct {
	ReachablePairs int64
	StrandedASes   int64
	StrandedShare  float64
	RegionStranded [NumRegions]float64
	DemandWeighted float64
}

func referenceScore(net *topology.Network, cat *dataset.RouterCatalog, demands []routing.Demand, dead []bool) (refScore, error) {
	var out refScore
	shares, err := routing.RegionShares(demands)
	if err != nil {
		return out, err
	}
	numNodes := len(net.Nodes)

	// Candidates: located nodes on any cable (dead or alive — attachment
	// is a compile-time property of the intact world).
	touches := make([]bool, numNodes)
	for ci := range net.Cables {
		for _, s := range net.Cables[ci].Segments {
			touches[s.A], touches[s.B] = true, true
		}
	}
	var cand []int
	for i := range net.Nodes {
		if touches[i] && net.Nodes[i].HasCoord {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return out, ErrNoSites
	}

	weights := make([]float64, len(cat.ASes))
	totalRaw := 0.0
	for i := range cat.ASes {
		weights[i] = population.DensityAt(cat.ASes[i].Home.Lat)
		totalRaw += weights[i]
	}
	if !(totalRaw > 0) {
		for i := range weights {
			weights[i] = 1
		}
		totalRaw = float64(len(weights))
	}

	regionOrder := geo.Regions()
	regionOf := make(map[geo.Region]int, len(regionOrder))
	for i, r := range regionOrder {
		regionOf[r] = i
	}

	attach := make([]int, len(cat.ASes))
	asCount := make([]int64, numNodes)
	users := make([]float64, numNodes)
	var regionUsers [][NumRegions]float64 = make([][NumRegions]float64, numNodes)
	for i := range cat.ASes {
		best, bestD := cand[0], math.Inf(1)
		for _, ni := range cand {
			d := geo.Haversine(cat.ASes[i].Home, net.Nodes[ni].Coord)
			if d < bestD {
				bestD = d
				best = ni
			}
		}
		attach[i] = best
		share := weights[i] / totalRaw
		asCount[best]++
		users[best] += share
		if ri, ok := regionOf[geo.RegionOf(cat.ASes[i].Home)]; ok {
			regionUsers[best][ri] += share
		}
	}

	// Severed adjacency: a hop survives if any alive cable carries it.
	adj := make([][]int, numNodes)
	for ci := range net.Cables {
		if dead[ci] {
			continue
		}
		for _, s := range net.Cables[ci].Segments {
			if s.A == s.B {
				continue
			}
			adj[s.A] = append(adj[s.A], s.B)
			adj[s.B] = append(adj[s.B], s.A)
		}
	}
	comp := make([]int, numNodes)
	for i := range comp {
		comp[i] = -1
	}
	numComp := 0
	var queue []int
	for i := 0; i < numNodes; i++ {
		if comp[i] >= 0 {
			continue
		}
		comp[i] = numComp
		queue = append(queue[:0], i)
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, m := range adj[n] {
				if comp[m] < 0 {
					comp[m] = numComp
					queue = append(queue, m)
				}
			}
		}
		numComp++
	}

	// Anchor: attach node with the largest user share (accumulated in AS
	// order, like Compile), ties to the lowest node index.
	anchor := -1
	for i := 0; i < numNodes; i++ {
		if asCount[i] == 0 {
			continue
		}
		if anchor < 0 || users[i] > users[anchor] {
			anchor = i
		}
	}

	compAS := make([]int64, numComp)
	totalAS := int64(0)
	totalUsers := 0.0
	var regionTotal [NumRegions]float64
	anchorUsers := 0.0
	var anchorRegion [NumRegions]float64
	anchorCount := int64(0)
	for i := 0; i < numNodes; i++ {
		if asCount[i] == 0 {
			continue
		}
		compAS[comp[i]] += asCount[i]
		totalAS += asCount[i]
		totalUsers += users[i]
		for ri := 0; ri < NumRegions; ri++ {
			regionTotal[ri] += regionUsers[i][ri]
		}
		if comp[i] == comp[anchor] {
			anchorCount += asCount[i]
			anchorUsers += users[i]
			for ri := 0; ri < NumRegions; ri++ {
				anchorRegion[ri] += regionUsers[i][ri]
			}
		}
	}
	for _, c := range compAS {
		out.ReachablePairs += c * (c - 1) / 2
	}
	out.StrandedASes = totalAS - anchorCount
	if totalUsers > 0 {
		out.StrandedShare = (totalUsers - anchorUsers) / totalUsers
		for ri := 0; ri < NumRegions; ri++ {
			out.RegionStranded[ri] = (regionTotal[ri] - anchorRegion[ri]) / totalUsers
			out.DemandWeighted += shares[regionOrder[ri]] * out.RegionStranded[ri]
		}
	}
	return out, nil
}

// TestDifferentialVsBFS is the randomized differential harness: 200+
// random worlds, each scored over several random dead sets by the CSR
// path and the naive BFS reference. Integer counts must be bit-identical;
// float shares agree to tight tolerance (the reference sums in a
// different order).
func TestDifferentialVsBFS(t *testing.T) {
	demands := routing.DefaultDemands()
	const worlds = 220
	for wi := 0; wi < worlds; wi++ {
		rng := xrand.New(uint64(1000 + wi))
		net, cat := randomWorld(rng)
		x, err := Compile(net, cat, demands)
		if err == ErrNoSites {
			continue // all nodes coordinate-free: nothing to test
		}
		if err != nil {
			t.Fatalf("world %d: Compile: %v", wi, err)
		}
		var s Scratch
		s.Grow(x)
		numCables := len(net.Cables)
		dead := graph.NewBitset(numCables)
		deadBools := make([]bool, numCables)
		for trial := 0; trial < 8; trial++ {
			p := rng.Float64()
			dead.Clear()
			for ci := 0; ci < numCables; ci++ {
				deadBools[ci] = rng.Float64() < p
				if deadBools[ci] {
					dead.Set(ci)
				}
			}
			got := x.ScoreDead(dead, &s)
			want, err := referenceScore(net, cat, demands, deadBools)
			if err != nil {
				t.Fatalf("world %d trial %d: reference: %v", wi, trial, err)
			}
			if got.ReachablePairs != want.ReachablePairs {
				t.Fatalf("world %d trial %d: pairs %d != reference %d",
					wi, trial, got.ReachablePairs, want.ReachablePairs)
			}
			if got.StrandedASes != want.StrandedASes {
				t.Fatalf("world %d trial %d: stranded ASes %d != reference %d",
					wi, trial, got.StrandedASes, want.StrandedASes)
			}
			if math.Abs(got.StrandedShare-want.StrandedShare) > 1e-9 {
				t.Fatalf("world %d trial %d: stranded share %v != reference %v",
					wi, trial, got.StrandedShare, want.StrandedShare)
			}
			if math.Abs(got.DemandWeighted-want.DemandWeighted) > 1e-9 {
				t.Fatalf("world %d trial %d: demand-weighted %v != reference %v",
					wi, trial, got.DemandWeighted, want.DemandWeighted)
			}
			for ri := 0; ri < NumRegions; ri++ {
				if math.Abs(got.RegionStranded[ri]-want.RegionStranded[ri]) > 1e-9 {
					t.Fatalf("world %d trial %d region %d: %v != reference %v",
						wi, trial, ri, got.RegionStranded[ri], want.RegionStranded[ri])
				}
			}
		}
	}
}

// meshWorld synthesises a small dense network: few nodes and many
// multi-segment cables, so the touched pair-edge graph of a block is full
// of cycles and most of its edges are cycle-closing extras.
func meshWorld(rng *xrand.Source) (*topology.Network, *dataset.RouterCatalog) {
	net, cat := randomWorld(rng)
	numNodes := 3 + rng.Intn(8)
	net.Nodes = net.Nodes[:min(numNodes, len(net.Nodes))]
	net.Cables = net.Cables[:0]
	for c := 0; c < 30+rng.Intn(40); c++ {
		cable := topology.Cable{Name: fmt.Sprintf("m%d", c), KnownLength: true}
		for s := 0; s < 1+rng.Intn(3); s++ {
			cable.Segments = append(cable.Segments, topology.Segment{
				A: rng.Intn(len(net.Nodes)), B: rng.Intn(len(net.Nodes)), LengthKm: rng.Range(1, 5000),
			})
		}
		net.Cables = append(net.Cables, cable)
	}
	return net, cat
}

// blockRows fills the first n rows of a block with random dead sets: each
// row empty, all dead, or dead at a random per-row probability. Cables in
// keep stay alive in every row; when cutAnchor is set, every third row
// also kills each cable touching the anchor, cutting its component away.
func blockRows(rng *xrand.Source, x *Index, masks graph.Bitset, words, n int, keep []bool, cutAnchor bool) {
	net := x.Network()
	for b := 0; b < n; b++ {
		row := masks[b*words : (b+1)*words]
		p := rng.Float64()
		mode := rng.Intn(8)
		for ci := range net.Cables {
			if keep != nil && keep[ci] {
				continue
			}
			if mode == 1 || mode > 1 && rng.Float64() < p {
				row.Set(ci)
			}
		}
		if cutAnchor && b%3 == 0 {
			for ci := range net.Cables {
				for _, sg := range net.Cables[ci].Segments {
					if int32(sg.A) == x.anchor || int32(sg.B) == x.anchor {
						row.Set(ci)
					}
				}
			}
		}
	}
}

// TestBatchMatchesScalarRandom pins batched ≡ scalar bit-identity over
// random worlds and blocks: every Score field, including floats, must be
// exactly equal (same partition, same float order). Beyond plain random
// worlds it covers mesh-like worlds whose blocks are mostly cycle-closing
// extras, blocks that cut the anchor's component away, and blocks whose
// always-alive cables gather several sites under one label; each kind
// must actually occur.
func TestBatchMatchesScalarRandom(t *testing.T) {
	demands := routing.DefaultDemands()
	kinds := []struct {
		name  string
		world func(*xrand.Source) (*topology.Network, *dataset.RouterCatalog)
		keep  bool // keep a random half of the cables alive in the block
		cut   bool
		seen  func(x *Index, s *Scratch) bool
	}{
		{"random", randomWorld, false, false, func(*Index, *Scratch) bool { return true }},
		{"mesh", meshWorld, false, false, func(_ *Index, s *Scratch) bool { return s.nExtra >= 4 }},
		{"anchor-cut", randomWorld, false, true, func(_ *Index, s *Scratch) bool { return s.nPos > 1 }},
		{"shared-labels", randomWorld, true, false, func(x *Index, s *Scratch) bool { return s.nAS < len(x.sites) }},
	}
	for ki, kind := range kinds {
		seen := false
		for wi := 0; wi < 60; wi++ {
			rng := xrand.New(uint64(5000 + 100*ki + wi))
			net, cat := kind.world(rng)
			x, err := Compile(net, cat, demands)
			if err == ErrNoSites {
				continue
			}
			if err != nil {
				t.Fatalf("%s world %d: Compile: %v", kind.name, wi, err)
			}
			var s Scratch
			s.Grow(x)
			numCables := len(net.Cables)
			words := graph.BitsetWords(numCables)
			var keep []bool
			if kind.keep {
				keep = make([]bool, numCables)
				for ci := range keep {
					keep[ci] = rng.Intn(2) == 0
				}
			}
			masks := make(graph.Bitset, 64*words)
			n := 1 + rng.Intn(64)
			blockRows(rng, x, masks, words, n, keep, kind.cut)
			batch := batchFromMasks(t, x, masks, words)
			out := make([]Score, 64)
			x.ScoreBatch(batch, n, out, &s)
			seen = seen || kind.seen(x, &s)
			var s2 Scratch
			s2.Grow(x)
			for b := 0; b < n; b++ {
				want := x.ScoreDead(masks[b*words:(b+1)*words], &s2)
				if !scoresBitIdentical(out[b], want) {
					t.Fatalf("%s world %d trial %d: batch %+v != scalar %+v", kind.name, wi, b, out[b], want)
				}
			}
		}
		if !seen {
			t.Errorf("%s: no world produced the block shape this case exists for", kind.name)
		}
	}
}

// TestBatchRelayThroughExtra hand-builds the case pruning must not break:
// an AS-free relay node (no coordinates, so no AS attaches to it) joins the
// anchor's site to a second site only around a cycle. The relay's edge to
// the second site dies most often in the block, so it becomes the
// cycle-closing extra and the relay a leaf of the forest with no AS. In
// trial 0 the direct cable is dead and both relay cables alive: the sites
// stay connected only through the extra, so the relay must survive pruning
// and the merge must happen.
func TestBatchRelayThroughExtra(t *testing.T) {
	net := &topology.Network{Name: "relay", Nodes: []topology.Node{
		{Name: "anchor", Coord: geo.Coord{Lat: 10, Lon: 10}, HasCoord: true},
		{Name: "relay"},
		{Name: "far", Coord: geo.Coord{Lat: -20, Lon: 100}, HasCoord: true},
	}}
	for _, sg := range []topology.Segment{{A: 0, B: 2}, {A: 0, B: 1}, {A: 1, B: 2}} {
		sg.LengthKm = 1000
		net.Cables = append(net.Cables, topology.Cable{Name: "c", KnownLength: true, Segments: []topology.Segment{sg}})
	}
	const direct, toRelay, relayOut = 0, 1, 2
	cat := &dataset.RouterCatalog{}
	for i, home := range []geo.Coord{{Lat: 11, Lon: 10}, {Lat: 9, Lon: 11}, {Lat: 12, Lon: 9}, {Lat: -21, Lon: 101}} {
		cat.ASes = append(cat.ASes, dataset.AS{ASN: 64512 + i, Home: home, Routers: []geo.Coord{home}})
	}
	x, err := Compile(net, cat, routing.DefaultDemands())
	if err != nil {
		t.Fatal(err)
	}
	if x.Sites() != 2 || x.SiteOf(1) != -1 {
		t.Fatalf("want two sites and none at the relay, got %d sites", x.Sites())
	}
	words := graph.BitsetWords(len(net.Cables))
	masks := make(graph.Bitset, 64*words)
	rows := [][]int{{direct}, {relayOut}, {relayOut}, {relayOut}, {relayOut, toRelay}, {direct, relayOut}}
	for b, dead := range rows {
		for _, ci := range dead {
			masks[b*words : (b+1)*words].Set(ci)
		}
	}
	var s Scratch
	s.Grow(x)
	out := make([]Score, 64)
	x.ScoreBatch(batchFromMasks(t, x, masks, words), len(rows), out, &s)
	if s.nExtra != 1 {
		t.Fatalf("want the relay's outbound edge as the one extra, got %d extras", s.nExtra)
	}
	if out[0].StrandedASes != 0 || out[0].ReachablePairs != 6 {
		t.Fatalf("trial 0: sites joined through the relay scored %+v", out[0])
	}
	for b := range rows {
		if want := x.ScoreDead(masks[b*words:(b+1)*words], &s); !scoresBitIdentical(out[b], want) {
			t.Fatalf("trial %d: batch %+v != scalar %+v", b, out[b], want)
		}
	}
}

// batchFromMasks loads hand-crafted row masks into a real BatchScratch
// (rows are writable views, so tests can inject exact dead sets).
func batchFromMasks(t *testing.T, x *Index, masks graph.Bitset, words int) *failure.BatchScratch {
	t.Helper()
	plan, err := failure.Compile(x.Network(), failure.Uniform{P: 0.5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var batch failure.BatchScratch
	batch.Grow(plan)
	for b := 0; b < failure.MaxBatch; b++ {
		copy(batch.Row(b), masks[b*words:(b+1)*words])
	}
	return &batch
}

func scoresBitIdentical(a, b Score) bool {
	if a.ReachablePairs != b.ReachablePairs || a.StrandedASes != b.StrandedASes {
		return false
	}
	if math.Float64bits(a.StrandedShare) != math.Float64bits(b.StrandedShare) {
		return false
	}
	if math.Float64bits(a.DemandWeighted) != math.Float64bits(b.DemandWeighted) {
		return false
	}
	for i := 0; i < NumRegions; i++ {
		if math.Float64bits(a.RegionStranded[i]) != math.Float64bits(b.RegionStranded[i]) {
			return false
		}
	}
	return true
}
