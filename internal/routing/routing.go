// Package routing models inter-region traffic and its re-routing after
// cable failures — the paper's §5.5 observation that the Internet, unlike
// regional power grids, shifts load globally: "when all submarine cables
// connecting to NY fail, there will be significant shifts in BGP paths and
// potential overload in Internet cables in California".
//
// The model is deliberately coarse: demands between continental regions,
// shortest-path routing over cable segments, and per-segment load
// accounting. It answers where load goes and what gets overloaded, not
// packet-level behaviour.
package routing

import (
	"errors"
	"fmt"
	"sort"

	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
)

// Demand is one directed region-to-region traffic entry. Units are
// arbitrary (normalised shares).
type Demand struct {
	From, To geo.Region
	Volume   float64
}

// ErrBadInput reports a network or dead-cable set that Route cannot index:
// a nil or invalid network (a segment naming a node that does not exist,
// for example) or a set that does not fit it. The error wraps the cause.
var ErrBadInput = errors.New("routing: invalid input")

// ErrZeroDemand is returned when a demand matrix carries no positive
// volume. Every share in this package is a fraction of total demand, so an
// all-zero (or empty) matrix has no well-defined shares; callers get this
// typed error instead of NaN.
var ErrZeroDemand = errors.New("routing: demand matrix has no positive volume")

// RegionShares returns each region's share of total outbound demand
// volume, normalised to sum to 1 over the regions that appear. Demands
// with non-positive volume contribute nothing; if no demand has positive
// volume the shares would be 0/0, so it returns ErrZeroDemand instead.
func RegionShares(demands []Demand) (map[geo.Region]float64, error) {
	total := 0.0
	out := map[geo.Region]float64{}
	for _, d := range demands {
		if d.Volume <= 0 {
			continue
		}
		total += d.Volume
		out[d.From] += d.Volume
	}
	if total <= 0 {
		return nil, ErrZeroDemand
	}
	for r := range out {
		out[r] /= total
	}
	return out, nil
}

// DefaultDemands synthesises a demand matrix over the inhabited regions,
// weighted by rough traffic shares (North America and Europe dominate
// inter-regional volume; intra-region traffic does not cross the
// submarine network and is excluded).
func DefaultDemands() []Demand {
	// A fixed-order table, deliberately not a map: demand synthesis feeds
	// the serving and cross-layer fingerprint paths, so element order must
	// come from source order, never from map iteration.
	shares := []struct {
		region geo.Region
		w      float64
	}{
		{geo.RegionNorthAmerica, 0.30},
		{geo.RegionEurope, 0.27},
		{geo.RegionAsia, 0.25},
		{geo.RegionSouthAmerica, 0.08},
		{geo.RegionAfrica, 0.05},
		{geo.RegionOceania, 0.05},
	}
	var out []Demand
	for _, a := range shares {
		for _, b := range shares {
			if a.region == b.region {
				continue
			}
			out = append(out, Demand{From: a.region, To: b.region, Volume: a.w * b.w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Report is the result of routing a demand set over a (possibly damaged)
// network.
type Report struct {
	// SegmentLoad is total volume per flattened segment.
	SegmentLoad []float64
	// SegmentCable maps flattened segments back to cable indices.
	SegmentCable []int
	// Stranded is the demand volume with no surviving path.
	Stranded float64
	// Total is the full demand volume.
	Total float64
}

// StrandedFrac is the share of demand left unroutable.
func (r *Report) StrandedFrac() float64 {
	if r.Total == 0 {
		return 0
	}
	return r.Stranded / r.Total
}

// Route routes every demand along the shortest surviving path between the
// regions' gateway nodes. cableDead is a dead-cable set and may be nil
// (intact network). Each
// region's gateway set is its up-to-8 highest-degree landing points with
// coordinates; demand splits evenly across gateway pairs that can reach
// each other.
//
// Paths are searched over the network's cached graph projection, whose
// edge IDs are the flattened segments (cable by cable, in segment order),
// so a Report indexes segments and graph edges alike.
//
// A network or set that topology.ValidateDead refuses (nil or malformed
// networks, sets that do not fit) is an error wrapping ErrBadInput.
func Route(net *topology.Network, demands []Demand, cableDead graph.Bitset) (*Report, error) {
	if err := net.ValidateDead(cableDead); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	gateways := gatewaysByRegion(net)
	// Each destination region with gateways gets a slot, numbered in
	// demand order; one search per source gateway serves every slot.
	slots := map[geo.Region]int{}
	var dests [][]int
	for _, d := range demands {
		if _, ok := slots[d.To]; !ok && len(gateways[d.To]) > 0 {
			slots[d.To] = len(dests)
			dests = append(dests, gateways[d.To])
		}
	}
	sp := newSearch(net, cableDead, dests)

	rep := &Report{
		SegmentLoad:  make([]float64, len(sp.edgeCable)),
		SegmentCable: sp.edgeCable,
	}
	for _, d := range demands {
		rep.Total += d.Volume
		from := gateways[d.From]
		to := gateways[d.To]
		if len(from) == 0 || len(to) == 0 {
			rep.Stranded += d.Volume
			continue
		}
		// Split demand across source gateways; each routes to its nearest
		// reachable destination gateway. Shares of gateways with no
		// surviving path spill over to the gateways that still have one —
		// the BGP-reconvergence analogue that concentrates load on
		// survivors (§5.5).
		per := d.Volume / float64(len(from))
		slot := slots[d.To]
		routed, failedShares := 0, 0.0
		for _, src := range from {
			if _, found := sp.path(src, slot); !found {
				failedShares += per
				continue
			}
			routed++
		}
		if routed == 0 {
			rep.Stranded += d.Volume
			continue
		}
		share := per + failedShares/float64(routed)
		for _, src := range from {
			path, _ := sp.path(src, slot)
			for _, e := range path {
				rep.SegmentLoad[e] += share
			}
		}
	}
	return rep, nil
}

// gatewaysByRegion picks up to 8 gateway landing points per region: the
// region's highest-degree *cities* (degree summed across a city's landing
// point instances), represented by each city's best-connected instance.
// City aggregation matters: hubs like New York spread their cables over
// several nearby landing stations.
func gatewaysByRegion(net *topology.Network) map[geo.Region][]int {
	deg := make([]int, len(net.Nodes))
	for _, c := range net.Cables {
		for _, s := range c.Segments {
			deg[s.A]++
			deg[s.B]++
		}
	}
	type city struct {
		total int
		best  int // node index of highest-degree instance
	}
	cities := map[geo.Region]map[string]*city{}
	for i, nd := range net.Nodes {
		if !nd.HasCoord || deg[i] == 0 {
			continue
		}
		r := geo.RegionOf(nd.Coord)
		key := cityKey(nd.Name)
		if cities[r] == nil {
			cities[r] = map[string]*city{}
		}
		c := cities[r][key]
		if c == nil {
			c = &city{best: i}
			cities[r][key] = c
		}
		c.total += deg[i]
		if deg[i] > deg[c.best] || (deg[i] == deg[c.best] && i < c.best) {
			c.best = i
		}
	}
	byRegion := map[geo.Region][]int{}
	for r, cs := range cities {
		keys := make([]string, 0, len(cs))
		for k := range cs {
			//gicnet:allow crossdet collected keys are sorted by (total degree, key) before any use, so map order cannot leak
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := cs[keys[i]], cs[keys[j]]
			if a.total != b.total {
				return a.total > b.total
			}
			return keys[i] < keys[j]
		})
		if len(keys) > 8 {
			keys = keys[:8]
		}
		for _, k := range keys {
			byRegion[r] = append(byRegion[r], cs[k].best)
		}
	}
	return byRegion
}

// cityKey strips the trailing instance index from a node name
// ("us-new-york-3" -> "us-new-york").
func cityKey(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '-' {
			return name[:i]
		}
		if name[i] < '0' || name[i] > '9' {
			break
		}
	}
	return name
}

// search finds, for one Route call, the shortest surviving path from a
// source gateway to the nearest gateway of each destination slot.
//
// Dijkstra from a source settles nodes in the same order whatever its
// targets are, and a search for one region stops at the first gateway of
// that region it settles. So a single run from the source, continued until
// it has settled a gateway of every slot, holds every per-region answer:
// each path is cut out of it when its gateway settles, and the pushes,
// pops and relaxations before that point are the per-region search's own.
// The scratch is indexed by node and reused by every run, with a per-run
// stamp instead of clearing it.
type search struct {
	g         *graph.Graph
	edgeCable []int     // flattened segment -> cable
	edgeKm    []float64 // flattened segment -> length
	cableDead graph.Bitset

	slot   []int32 // node -> destination slot it is a gateway of, or -1
	slots  int
	source []int32 // node -> index of its run's spans, or -1 before its run
	spans  []span  // run k's path to slot s is edges[spans[k*slots+s]]
	edges  []graph.EdgeID

	stamp   uint32
	reached []uint32 // reached[n] == stamp: dist[n] and prev[n] are set
	settled []uint32 // settled[n] == stamp: n was popped
	dist    []float64
	prev    []graph.EdgeID // edge into n on its best path
	heap    pq
}

// span is one path's edges, destination first; end < 0 means no path.
type span struct{ start, end int32 }

// newSearch prepares the searches of one Route call; dests[k] lists the
// gateways of slot k.
func newSearch(net *topology.Network, cableDead graph.Bitset, dests [][]int) *search {
	g := net.Graph()
	n := g.NumNodes()
	s := &search{
		g:         g,
		edgeCable: make([]int, 0, g.NumEdges()),
		edgeKm:    make([]float64, 0, g.NumEdges()),
		cableDead: cableDead,
		slot:      make([]int32, n),
		slots:     len(dests),
		source:    make([]int32, n),
		reached:   make([]uint32, n),
		settled:   make([]uint32, n),
		dist:      make([]float64, n),
		prev:      make([]graph.EdgeID, n),
	}
	for i := range s.slot {
		s.slot[i], s.source[i] = -1, -1
	}
	for k, gws := range dests {
		for _, gw := range gws {
			s.slot[gw] = int32(k)
		}
	}
	for ci, c := range net.Cables {
		for _, seg := range c.Segments {
			s.edgeCable = append(s.edgeCable, ci)
			s.edgeKm = append(s.edgeKm, seg.LengthKm)
		}
	}
	return s
}

// path returns the edges of the shortest surviving path from src to the
// nearest gateway of the slot, destination first, running src's search on
// first use.
func (s *search) path(src, slot int) ([]graph.EdgeID, bool) {
	k := s.source[src]
	if k < 0 {
		k = s.run(src)
	}
	sp := s.spans[int(k)*s.slots+slot]
	if sp.end < 0 {
		return nil, false
	}
	return s.edges[sp.start:sp.end], true
}

// run is Dijkstra from src over alive segments until a gateway of every
// slot has settled or no node is left to settle.
func (s *search) run(src int) int32 {
	const inf = 1e18
	k := int32(len(s.spans) / s.slots)
	s.source[src] = k
	base := len(s.spans)
	for i := 0; i < s.slots; i++ {
		s.spans = append(s.spans, span{end: -1})
	}
	left := s.slots
	s.stamp++
	s.reached[src], s.dist[src] = s.stamp, 0
	s.heap = append(s.heap[:0], pqItem{node: src, dist: 0})
	for len(s.heap) > 0 && left > 0 {
		it := s.heap.pop()
		if s.settled[it.node] == s.stamp {
			continue
		}
		s.settled[it.node] = s.stamp
		if sl := s.slot[it.node]; sl >= 0 && s.spans[base+int(sl)].end < 0 {
			start := len(s.edges)
			for n := it.node; n != src; {
				e := s.prev[n]
				s.edges = append(s.edges, e)
				n = int(s.g.Other(e, graph.NodeID(n)))
			}
			s.spans[base+int(sl)] = span{int32(start), int32(len(s.edges))}
			left--
		}
		for _, e := range s.g.Incident(graph.NodeID(it.node)) {
			other := int(s.g.Other(e, graph.NodeID(it.node)))
			if (s.cableDead != nil && s.cableDead.Get(s.edgeCable[e])) || s.settled[other] == s.stamp {
				continue
			}
			nd := it.dist + s.edgeKm[e]
			cur := inf
			if s.reached[other] == s.stamp {
				cur = s.dist[other]
			}
			if nd < cur {
				s.reached[other], s.dist[other], s.prev[other] = s.stamp, nd, e
				s.heap.push(pqItem{node: other, dist: nd})
			}
		}
	}
	return k
}

// pqItem is a priority queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap on dist whose push and pop sift exactly like
// container/heap's Push and Pop, so equal distances leave in the same
// order as they would there.
type pq []pqItem

func (p *pq) push(it pqItem) {
	h := append(*p, it)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*p = h
}

func (p *pq) pop() pqItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*p = h[:n]
	return h[n]
}

// Shift describes load change on one cable after failures.
type Shift struct {
	Cable  string
	Before float64
	After  float64
}

// Ratio returns after/before (inf-like 1e9 when load appeared on an
// unloaded cable).
func (s Shift) Ratio() float64 {
	if s.Before == 0 {
		if s.After == 0 {
			return 1
		}
		return 1e9
	}
	return s.After / s.Before
}

// CompareLoads aggregates per-segment loads to cables and returns the
// cables with increased load, biggest absolute increase first. A nil
// network or report, and reports that do not fit the network, are refused.
func CompareLoads(net *topology.Network, before, after *Report) ([]Shift, error) {
	if net == nil || before == nil || after == nil {
		return nil, errors.New("routing: compare needs a network and two reports")
	}
	if len(before.SegmentLoad) != len(after.SegmentLoad) ||
		len(before.SegmentCable) != len(before.SegmentLoad) || len(after.SegmentCable) != len(after.SegmentLoad) {
		return nil, fmt.Errorf("routing: report shapes differ: %d vs %d",
			len(before.SegmentLoad), len(after.SegmentLoad))
	}
	nc := len(net.Cables)
	perCableBefore := make([]float64, nc)
	perCableAfter := make([]float64, nc)
	for i := range before.SegmentLoad {
		cb, ca := before.SegmentCable[i], after.SegmentCable[i]
		if cb < 0 || cb >= nc || ca < 0 || ca >= nc {
			return nil, fmt.Errorf("routing: segment %d names cable %d and %d of a %d-cable network", i, cb, ca, nc)
		}
		perCableBefore[cb] += before.SegmentLoad[i]
		perCableAfter[ca] += after.SegmentLoad[i]
	}
	var out []Shift
	for ci := range net.Cables {
		if perCableAfter[ci] > perCableBefore[ci]+1e-12 {
			out = append(out, Shift{
				Cable:  net.Cables[ci].Name,
				Before: perCableBefore[ci],
				After:  perCableAfter[ci],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].After-out[i].Before > out[j].After-out[j].Before
	})
	return out, nil
}

// OverloadedCables returns the cables whose post-failure load exceeds
// headroom x their pre-failure load (only cables that carried load
// before count).
func OverloadedCables(shifts []Shift, headroom float64) []Shift {
	var out []Shift
	for _, s := range shifts {
		if s.Before > 0 && s.After > headroom*s.Before {
			out = append(out, s)
		}
	}
	return out
}
