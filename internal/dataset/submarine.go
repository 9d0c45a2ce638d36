package dataset

import (
	"fmt"
	"math"
	"sort"

	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// SubmarineConfig tunes the synthetic submarine network. The defaults are
// calibrated to the statistics the paper reports for the TeleGeography map:
// 470 cables, 1241 landing points, 441 published lengths, median length
// 775 km, 99th percentile 28000 km, maximum 39000 km, 82 repeater-free
// cables at 150 km spacing, mean 22.3 repeaters per cable at 150 km, and
// 31% of landing points above 40 degrees absolute latitude.
type SubmarineConfig struct {
	// Cables is the total system count (paper: 470).
	Cables int
	// LandingPoints is the node count (paper: 1241).
	LandingPoints int
	// UnknownLengthCables marks this many procedural cables as having no
	// published length (paper: 470-441 = 29).
	UnknownLengthCables int
	// RegionalMedianKm and RegionalSigma shape the lognormal length
	// distribution of procedural (non-trunk) cables.
	RegionalMedianKm float64
	RegionalSigma    float64
	// DetourFactor inflates geodesics to route lengths.
	DetourFactor float64
	// MaxRegionalKm caps procedural cables so only trunks form the tail.
	MaxRegionalKm float64
	// NorthBias multiplies anchor weights above 40 absolute latitude when
	// placing procedural infrastructure, reproducing the paper's skew.
	NorthBias float64
	// LocalCableFrac is the share of procedural cables that are short
	// domestic systems (two landing stations in one metro, island loops)
	// under 150 km — the repeater-free population of §4.3.1.
	LocalCableFrac float64
}

// DefaultSubmarineConfig returns the calibrated defaults.
func DefaultSubmarineConfig() SubmarineConfig {
	return SubmarineConfig{
		Cables:              470,
		LandingPoints:       1241,
		UnknownLengthCables: 29,
		RegionalMedianKm:    560,
		RegionalSigma:       1.55,
		DetourFactor:        1.22,
		MaxRegionalKm:       9000,
		NorthBias:           1.8,
		LocalCableFrac:      0.52,
	}
}

// proceduralExcluded names anchors that only named trunks may touch. The
// paper's China analysis hinges on every Shanghai cable being a very long
// multi-city system; a procedural regional cable there would break it.
var proceduralExcluded = map[string]bool{"shanghai": true}

// submarineBuilder accumulates nodes and per-anchor landing point pools.
type submarineBuilder struct {
	cfg     SubmarineConfig
	rng     *xrand.Source
	net     *topology.Network
	pools   map[string][]int // anchor name -> node indices
	used    map[int]bool     // nodes referenced by at least one cable
	weights []float64        // anchor pick weights incl. north bias
	units   []geo.Vec        // per node: its coordinate on the unit sphere
	// hosts lists, per node, the procedural (non-trunk) cables with a
	// segment at that node, ascending. Every cable and segment goes
	// through addCable or appendSegment, which keep it current.
	hosts [][]int
}

// GenerateSubmarine synthesises the global submarine cable network.
func GenerateSubmarine(cfg SubmarineConfig, rng *xrand.Source) (*topology.Network, error) {
	if cfg.Cables < TrunkCount() {
		return nil, fmt.Errorf("dataset: need at least %d cables for trunks, got %d", TrunkCount(), cfg.Cables)
	}
	b := newSubmarineBuilder(cfg, rng)
	b.addTrunks()
	b.addRegionalCables()
	b.attachRemainingLandingPoints()
	b.bridgeComponents()
	b.markUnknownLengths()

	if err := b.net.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: generated submarine network invalid: %w", err)
	}
	return b.net, nil
}

// newSubmarineBuilder returns an empty builder with the anchor weights.
func newSubmarineBuilder(cfg SubmarineConfig, rng *xrand.Source) *submarineBuilder {
	b := &submarineBuilder{
		cfg:   cfg,
		rng:   rng,
		net:   &topology.Network{Name: "submarine"},
		pools: make(map[string][]int),
		used:  make(map[int]bool),
	}
	b.weights = make([]float64, len(anchors))
	for i, a := range anchors {
		if proceduralExcluded[a.Name] {
			continue // weight 0: trunks only (e.g. Shanghai, §4.3.4)
		}
		w := a.Weight
		if a.Coord.AbsLat() > 40 {
			w *= cfg.NorthBias
		}
		b.weights[i] = w
	}
	return b
}

// landingPoint returns a node index for a landing in the anchor's city,
// reusing an existing instance with probability reuse, else minting a new
// jittered one.
func (b *submarineBuilder) landingPoint(anchorName string, reuse float64) int {
	pool := b.pools[anchorName]
	if len(pool) > 0 && b.rng.Bool(reuse) {
		idx := pool[b.rng.Intn(len(pool))]
		b.used[idx] = true
		return idx
	}
	return b.newLandingPoint(anchorName, true)
}

func (b *submarineBuilder) newLandingPoint(anchorName string, markUsed bool) int {
	a, ok := AnchorByName(anchorName)
	if !ok {
		panic("dataset: unknown anchor " + anchorName)
	}
	n := len(b.pools[anchorName])
	c := geo.Coord{
		Lat: clampLat(a.Coord.Lat + b.rng.Range(-0.6, 0.6)),
		Lon: clampLon(a.Coord.Lon + b.rng.Range(-0.6, 0.6)),
	}
	idx := len(b.net.Nodes)
	b.net.Nodes = append(b.net.Nodes, topology.Node{
		Name:     fmt.Sprintf("%s-%s-%d", a.Country, a.Name, n),
		Coord:    c,
		HasCoord: true,
		Country:  a.Country,
	})
	b.units = append(b.units, geo.UnitVec(c))
	b.hosts = append(b.hosts, nil)
	b.pools[anchorName] = append(b.pools[anchorName], idx)
	if markUsed {
		b.used[idx] = true
	}
	return idx
}

func clampLat(v float64) float64 {
	if v > 90 {
		return 90
	}
	if v < -90 {
		return -90
	}
	return v
}

func clampLon(v float64) float64 {
	for v > 180 {
		v -= 360
	}
	for v < -180 {
		v += 360
	}
	return v
}

// addTrunks instantiates every named trunk, distributing the published
// total length over segments proportionally to segment geodesics.
func (b *submarineBuilder) addTrunks() {
	for _, t := range trunks {
		nodes := make([]int, len(t.Path))
		for i, city := range t.Path {
			nodes[i] = b.landingPoint(city, 0.35)
		}
		geodesics := make([]float64, 0, len(nodes)-1)
		total := 0.0
		for i := 0; i+1 < len(nodes); i++ {
			d := geo.Haversine(b.net.Nodes[nodes[i]].Coord, b.net.Nodes[nodes[i+1]].Coord)
			if d < 1 {
				d = 1 // co-located instances: keep proportions finite
			}
			geodesics = append(geodesics, d)
			total += d
		}
		segs := make([]topology.Segment, len(geodesics))
		for i, d := range geodesics {
			segs[i] = topology.Segment{
				A:        nodes[i],
				B:        nodes[i+1],
				LengthKm: t.LengthKm * d / total,
			}
		}
		b.addCable(topology.Cable{
			Name:        t.Name,
			Segments:    segs,
			KnownLength: true,
		})
	}
}

// addRegionalCables generates procedural multi-landing cables between
// nearby anchors until the configured cable count is reached.
func (b *submarineBuilder) addRegionalCables() {
	n := b.cfg.Cables - len(b.net.Cables)
	for k := 0; k < n; k++ {
		if b.rng.Bool(b.cfg.LocalCableFrac) {
			b.addLocalCable(k)
			continue
		}
		target := b.rng.LogNormal(lnOf(b.cfg.RegionalMedianKm), b.cfg.RegionalSigma)
		if target > b.cfg.MaxRegionalKm {
			target = b.cfg.MaxRegionalKm
		}
		// Landing count: mostly point-to-point, some multi-branch.
		points := 2
		switch r := b.rng.Float64(); {
		case r < 0.18:
			points = 3
		case r < 0.28:
			points = 4
		case r < 0.33:
			points = 5
		}
		hops := points - 1
		hopTarget := target / float64(hops)

		srcAnchor := b.rng.Pick(b.weights)
		prev := b.landingPoint(anchors[srcAnchor].Name, 0.3)
		cur := srcAnchor
		var segs []topology.Segment
		for h := 0; h < hops; h++ {
			next := b.pickPartner(cur, hopTarget)
			ni := b.landingPoint(anchors[next].Name, 0.3)
			if ni == prev {
				ni = b.newLandingPoint(anchors[next].Name, true)
			}
			d := geo.Haversine(b.net.Nodes[prev].Coord, b.net.Nodes[ni].Coord) * b.cfg.DetourFactor
			if d < 40 {
				d = 40 + b.rng.Range(0, 60)
			}
			segs = append(segs, topology.Segment{A: prev, B: ni, LengthKm: d})
			prev, cur = ni, next
		}
		b.addCable(topology.Cable{
			Name:        fmt.Sprintf("regional-%03d", k),
			Segments:    segs,
			KnownLength: true,
		})
	}
}

// addLocalCable adds a short domestic system: two fresh landing stations
// in the same metro area, under 150 km of route.
func (b *submarineBuilder) addLocalCable(k int) {
	ai := b.rng.Pick(b.weights)
	a := b.newLandingPoint(anchors[ai].Name, true)
	c := b.newLandingPoint(anchors[ai].Name, true)
	b.addCable(topology.Cable{
		Name:        fmt.Sprintf("local-%03d", k),
		Segments:    []topology.Segment{{A: a, B: c, LengthKm: b.localLength()}},
		KnownLength: true,
	})
}

// pickPartner selects a destination anchor whose distance from src best
// matches the target length, softened by hub weight and north bias.
func (b *submarineBuilder) pickPartner(src int, targetKm float64) int {
	scores := make([]float64, len(anchors))
	from := anchors[src].Coord
	for i := range anchors {
		if i == src {
			continue
		}
		d := geo.Haversine(from, anchors[i].Coord)
		// Gaussian affinity in log-distance space keeps relative error
		// symmetric (800 vs 1600 km is as close as 800 vs 400).
		z := (lnOf(d+1) - lnOf(targetKm)) / 0.45
		scores[i] = b.weights[i] * expNeg(z*z/2)
	}
	return b.rng.Pick(scores)
}

// attachRemainingLandingPoints mints landing points up to the configured
// count and attaches each as an extra branch segment of the nearest cable —
// the synthetic analogue of branching units (e.g. Equiano's nine branches).
func (b *submarineBuilder) attachRemainingLandingPoints() {
	for len(b.net.Nodes) < b.cfg.LandingPoints {
		idx := b.newLandingPoint(anchors[b.rng.Pick(b.weights)].Name, false)
		b.attachAsBranch(idx)
	}
	// Also attach any node minted earlier but never used by a cable.
	for i := range b.net.Nodes {
		if !b.used[i] {
			b.attachAsBranch(i)
		}
	}
}

// attachAsBranch connects node idx to the nearest used node that hosts a
// procedural cable, extending one of that node's procedural cables (drawn
// uniformly from its ascending host list) with a branch segment. Named
// trunks are never extended — their published lengths must stay intact.
// Equal distances go to the lower node index.
func (b *submarineBuilder) attachAsBranch(idx int) {
	q, qv := b.net.Nodes[idx].Coord, b.units[idx]
	screen := geo.NewScreen()
	best, bestD := -1, math.Inf(1)
	for j := range b.net.Nodes {
		if j == idx || len(b.hosts[j]) == 0 || !screen.Admit(qv.Dot(b.units[j])) {
			continue
		}
		if d := geo.Haversine(q, b.net.Nodes[j].Coord); d < bestD {
			best, bestD = j, d
		}
	}
	if best < 0 {
		return
	}
	hosts := b.hosts[best]
	ci := hosts[b.rng.Intn(len(hosts))]
	length := bestD * b.cfg.DetourFactor
	if length < 30 {
		length = 30 + b.rng.Range(0, 40)
	}
	b.appendSegment(ci, topology.Segment{A: best, B: idx, LengthKm: length})
	b.used[idx] = true
}

// addCable appends a cable; a procedural one (every cable after the named
// trunks) becomes a host of its segments' nodes.
func (b *submarineBuilder) addCable(c topology.Cable) {
	b.net.Cables = append(b.net.Cables, c)
	for _, s := range c.Segments {
		b.addHost(s.A, len(b.net.Cables)-1)
		b.addHost(s.B, len(b.net.Cables)-1)
	}
}

// appendSegment extends procedural cable ci with segment s.
func (b *submarineBuilder) appendSegment(ci int, s topology.Segment) {
	b.net.Cables[ci].Segments = append(b.net.Cables[ci].Segments, s)
	b.addHost(s.A, ci)
	b.addHost(s.B, ci)
}

// addHost records procedural cable ci at node n, keeping n's host list
// ascending and free of repeats. Trunk cables are not recorded.
func (b *submarineBuilder) addHost(n, ci int) {
	if ci < TrunkCount() {
		return
	}
	h := b.hosts[n]
	k := sort.SearchInts(h, ci)
	if k < len(h) && h[k] == ci {
		return
	}
	h = append(h, 0)
	copy(h[k+1:], h[k:])
	h[k] = ci
	b.hosts[n] = h
}

// bridgeComponents merges every small component into the giant component
// by adding a branch segment between the nearest cross-component node pair.
// The real submarine network is one connected system apart from a handful
// of domestic loops; leaving islands would distort the reachability
// analyses.
//
// The giant is the largest component; among equal sizes it is the one
// with the smallest node index, the component an ascending labelling
// numbers first. One union-find follows the merges. Each merge adds one
// small component to the giant, so the giant only ever grows and stays
// the largest.
func (b *submarineBuilder) bridgeComponents() {
	nn := len(b.net.Nodes)
	uf := graph.NewUnionFind(nn)
	for ci := range b.net.Cables {
		for _, s := range b.net.Cables[ci].Segments {
			uf.Union(s.A, s.B)
		}
	}
	size := make([]int, nn)
	for i := 0; i < nn; i++ {
		size[uf.Find(i)]++
	}
	// Ascending i meets each component first at its smallest node, and
	// only a strictly larger component replaces the giant.
	giant := uf.Find(0)
	for i := 1; i < nn; i++ {
		if r := uf.Find(i); size[r] > size[giant] {
			giant = r
		}
	}
	var fresh, outside []int // new giant members; every other node, ascending
	for i := 0; i < nn; i++ {
		if uf.Find(i) == giant {
			fresh = append(fresh, i)
		} else {
			outside = append(outside, i)
		}
	}

	// Incremental nearest-pair bookkeeping. Node coordinates are fixed
	// while bridging and the giant only grows, so each outside node's
	// closest bridgeable giant partner can only improve as members join.
	// Track a running (bestD, bestJ) per node and fold in just the new
	// members each round: every cross pair is visited at most once, and
	// only pairs that pass the node's screen pay for a haversine.
	bestD := make([]float64, nn)
	bestJ := make([]int, nn)
	screens := make([]geo.Screen, nn)
	for i := range bestD {
		bestD[i] = math.Inf(1)
		bestJ[i] = -1
		screens[i] = geo.NewScreen()
	}
	for len(outside) > 0 {
		// Only nodes hosting a procedural cable are bridgeable: trunks
		// must not grow. A giant node never gains its first host, since
		// segments are only appended at a hosted giant node and at an
		// outside node.
		for _, j := range fresh {
			if len(b.hosts[j]) == 0 {
				continue
			}
			cj, vj := b.net.Nodes[j].Coord, b.units[j]
			for _, i := range outside {
				if !screens[i].Admit(b.units[i].Dot(vj)) {
					continue
				}
				d := geo.Haversine(b.net.Nodes[i].Coord, cj)
				//gicnet:allow floatcmp exact distance tie-break keeps bridge selection deterministic
				if d < bestD[i] || (d == bestD[i] && j < bestJ[i]) {
					bestD[i], bestJ[i] = d, j
				}
			}
		}
		// Bridge the outside node closest to its giant partner; equal
		// distances keep the smaller node index.
		bd, ba := math.Inf(1), -1
		for _, i := range outside {
			if bestJ[i] >= 0 && bestD[i] < bd {
				bd, ba = bestD[i], i
			}
		}
		if ba < 0 {
			return
		}
		bj := bestJ[ba]
		hosts := b.hosts[bj]
		b.appendSegment(hosts[len(hosts)-1], topology.Segment{
			A: bj, B: ba, LengthKm: bd * b.cfg.DetourFactor,
		})
		uf.Union(bj, ba)
		giant = uf.Find(bj)
		kept := outside[:0]
		fresh = fresh[:0]
		for _, i := range outside {
			if uf.Find(i) == giant {
				fresh = append(fresh, i)
			} else {
				kept = append(kept, i)
			}
		}
		outside = kept
	}
}

// markUnknownLengths marks the configured number of procedural cables as
// length-unknown, mirroring the 29 unpublished lengths in the real map.
func (b *submarineBuilder) markUnknownLengths() {
	remaining := b.cfg.UnknownLengthCables
	for i := range b.net.Cables {
		if remaining == 0 {
			return
		}
		name := b.net.Cables[i].Name
		if len(name) >= 8 && name[:8] == "regional" {
			b.net.Cables[i].KnownLength = false
			remaining--
		}
	}
}

// sortedLengths returns the known cable lengths, ascending. Exposed for
// calibration tooling.
func sortedLengths(n *topology.Network) []float64 {
	ls := n.CableLengths()
	sort.Float64s(ls)
	return ls
}

// localLength draws a short domestic system length: usually repeater-free
// (< 150 km), sometimes a short-hop domestic route.
func (b *submarineBuilder) localLength() float64 {
	if b.rng.Bool(0.62) {
		return b.rng.Range(40, 145)
	}
	return b.rng.Range(150, 720)
}
