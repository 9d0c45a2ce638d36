package routing

import (
	"container/heap"
	"errors"
	"sort"

	"gicnet/internal/geo"
	"gicnet/internal/topology"
)

// routeReference is Route as it was before the search ran over the
// network's cached graph: a segment graph rebuilt per call, gateway
// degrees kept in a map, and a Dijkstra over maps and container/heap.
// The differential tests hold Route to it report for report.
func routeReference(net *topology.Network, demands []Demand, cableDead []bool) (*Report, error) {
	if cableDead != nil && len(cableDead) != len(net.Cables) {
		return nil, errors.New("routing: death vector length mismatch")
	}
	g := buildRefSegGraph(net)
	gateways := refGatewaysByRegion(net)

	rep := &Report{
		SegmentLoad:  make([]float64, len(g.segs)),
		SegmentCable: make([]int, len(g.segs)),
	}
	for i, s := range g.segs {
		rep.SegmentCable[i] = s.cable
	}
	alive := func(si int) bool {
		return cableDead == nil || !cableDead[g.segs[si].cable]
	}
	for _, d := range demands {
		rep.Total += d.Volume
		from := gateways[d.From]
		to := gateways[d.To]
		if len(from) == 0 || len(to) == 0 {
			rep.Stranded += d.Volume
			continue
		}
		per := d.Volume / float64(len(from))
		var ok [][]int
		failedShares := 0.0
		for _, src := range from {
			segs, found := refShortestPath(g, src, to, alive)
			if !found {
				failedShares += per
				continue
			}
			ok = append(ok, segs)
		}
		if len(ok) == 0 {
			rep.Stranded += d.Volume
			continue
		}
		share := per + failedShares/float64(len(ok))
		for _, segs := range ok {
			for _, si := range segs {
				rep.SegmentLoad[si] += share
			}
		}
	}
	return rep, nil
}

type refSegGraph struct {
	adj  [][]refSegRef
	segs []refFlatSeg
}

type refSegRef struct {
	seg   int
	other int
}

type refFlatSeg struct {
	cable    int
	lengthKm float64
}

func buildRefSegGraph(net *topology.Network) *refSegGraph {
	g := &refSegGraph{adj: make([][]refSegRef, len(net.Nodes))}
	for ci, c := range net.Cables {
		for _, s := range c.Segments {
			si := len(g.segs)
			g.segs = append(g.segs, refFlatSeg{cable: ci, lengthKm: s.LengthKm})
			g.adj[s.A] = append(g.adj[s.A], refSegRef{si, s.B})
			if s.A != s.B {
				g.adj[s.B] = append(g.adj[s.B], refSegRef{si, s.A})
			}
		}
	}
	return g
}

func refGatewaysByRegion(net *topology.Network) map[geo.Region][]int {
	deg := make(map[int]int)
	for _, c := range net.Cables {
		for _, s := range c.Segments {
			deg[s.A]++
			deg[s.B]++
		}
	}
	type city struct {
		total int
		best  int
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

type refPQ []pqItem

func (p refPQ) Len() int            { return len(p) }
func (p refPQ) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p refPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *refPQ) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

func refShortestPath(g *refSegGraph, src int, dsts []int, alive func(int) bool) ([]int, bool) {
	isDst := make(map[int]bool, len(dsts))
	for _, d := range dsts {
		isDst[d] = true
	}
	const inf = 1e18
	dist := make(map[int]float64, 256)
	prevSeg := make(map[int]int, 256)
	prevNode := make(map[int]int, 256)
	dist[src] = 0
	q := &refPQ{{node: src, dist: 0}}
	visited := make(map[int]bool, 256)
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if visited[it.node] {
			continue
		}
		visited[it.node] = true
		if isDst[it.node] {
			var segs []int
			n := it.node
			for n != src {
				segs = append(segs, prevSeg[n])
				n = prevNode[n]
			}
			return segs, true
		}
		for _, ref := range g.adj[it.node] {
			if !alive(ref.seg) || visited[ref.other] {
				continue
			}
			nd := it.dist + g.segs[ref.seg].lengthKm
			cur, seen := dist[ref.other]
			if !seen {
				cur = inf
			}
			if nd < cur {
				dist[ref.other] = nd
				prevSeg[ref.other] = ref.seg
				prevNode[ref.other] = it.node
				heap.Push(q, pqItem{node: ref.other, dist: nd})
			}
		}
	}
	return nil, false
}
