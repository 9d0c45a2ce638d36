package dataset

import (
	"fmt"
	"sort"

	"gicnet/internal/geo"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// IntertubesConfig tunes the synthetic US long-haul fiber network.
// Defaults are calibrated to what the paper reports for the Intertubes
// dataset: 542 links, 258 of them under 150 km, mean 1.7 repeaters per
// cable at 150 km spacing, and ~40% of endpoints above 40N.
type IntertubesConfig struct {
	// Nodes is the endpoint count (real Intertubes: 273).
	Nodes int
	// Links is the conduit count (paper: 542).
	Links int
	// RoadFactor inflates geodesics to driving distance, the estimator
	// the paper uses for link lengths (§4.2.2).
	RoadFactor float64
	// RoadJitter is the +- spread applied to RoadFactor per link.
	RoadJitter float64
}

// DefaultIntertubesConfig returns the calibrated defaults.
func DefaultIntertubesConfig() IntertubesConfig {
	return IntertubesConfig{Nodes: 273, Links: 542, RoadFactor: 1.25, RoadJitter: 0.12}
}

// GenerateIntertubes synthesises the US long-haul fiber network: seed
// metros plus junction towns interpolated along metro pairs, linked by a
// shortest-pairs-first conduit mesh with a connected spanning core.
func GenerateIntertubes(cfg IntertubesConfig, rng *xrand.Source) (*topology.Network, error) {
	if cfg.Nodes < len(usCities) {
		return nil, fmt.Errorf("dataset: need at least %d nodes, got %d", len(usCities), cfg.Nodes)
	}
	if cfg.Links < cfg.Nodes-1 {
		return nil, fmt.Errorf("dataset: %d links cannot connect %d nodes", cfg.Links, cfg.Nodes)
	}
	net := &topology.Network{Name: "intertubes"}
	for _, c := range usCities {
		net.Nodes = append(net.Nodes, topology.Node{
			Name:     "us-" + c.Name,
			Coord:    c.Coord,
			HasCoord: true,
			Country:  "us",
		})
	}

	// Junction towns: regen huts and small cities along metro-metro
	// corridors. Interpolate between two nearby metros with jitter.
	weights := make([]float64, len(usCities))
	cities := make([]geo.Coord, len(usCities))
	cityUnits := make([]geo.Vec, len(usCities))
	for i, c := range usCities {
		weights[i] = c.Weight
		cities[i] = c.Coord
		cityUnits[i] = geo.UnitVec(c.Coord)
	}
	var near []int
	for len(net.Nodes) < cfg.Nodes {
		a := rng.Pick(weights)
		// One of the 4 nearest cities to a, at random.
		near = geo.NearestK(near[:0], cities[a], cityUnits[a], cities, cityUnits, 4, a)
		b := near[rng.Intn(len(near))]
		f := rng.Range(0.25, 0.75)
		p := geo.Interpolate(usCities[a].Coord, usCities[b].Coord, f)
		p.Lat = clampLat(p.Lat + rng.Range(-0.3, 0.3))
		p.Lon = clampLon(p.Lon + rng.Range(-0.3, 0.3))
		net.Nodes = append(net.Nodes, topology.Node{
			Name:     fmt.Sprintf("us-junction-%03d", len(net.Nodes)-len(usCities)),
			Coord:    p,
			HasCoord: true,
			Country:  "us",
		})
	}

	links := buildMesh(net, cfg.Links, rng)
	for li, pair := range links {
		d := geo.Haversine(net.Nodes[pair[0]].Coord, net.Nodes[pair[1]].Coord)
		road := cfg.RoadFactor + rng.Range(-cfg.RoadJitter, cfg.RoadJitter)
		length := d * road
		if length < 20 {
			length = 20 + rng.Range(0, 30)
		}
		net.Cables = append(net.Cables, topology.Cable{
			Name:        fmt.Sprintf("us-link-%03d", li),
			Segments:    []topology.Segment{{A: pair[0], B: pair[1], LengthKm: length}},
			KnownLength: true,
		})
	}

	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: generated intertubes network invalid: %w", err)
	}
	return net, nil
}

// buildMesh returns linkCount node pairs: a minimum-spanning tree of short
// hops for connectivity, topped up with express inter-metro conduits whose
// lengths follow the long-haul corridor distribution (median ~450 km).
func buildMesh(net *topology.Network, linkCount int, rng *xrand.Source) [][2]int {
	n := len(net.Nodes)
	type pair struct {
		a, b int
		d    float64
	}
	// Candidate pairs: k nearest neighbours of each node (nearest first,
	// equal distances to the lower index) keeps the candidate set O(n*k)
	// instead of O(n^2) links.
	const k = 14
	coords := make([]geo.Coord, n)
	units := make([]geo.Vec, n)
	for i, nd := range net.Nodes {
		coords[i] = nd.Coord
		units[i] = geo.UnitVec(nd.Coord)
	}
	seen := make(map[[2]int]bool)
	var cands []pair
	var nbs []int
	for i := 0; i < n; i++ {
		nbs = geo.NearestK(nbs[:0], coords[i], units[i], coords, units, k, i)
		for _, j := range nbs {
			key := orderedPair(i, j)
			if !seen[key] {
				seen[key] = true
				cands = append(cands, pair{key[0], key[1], geo.Haversine(coords[i], coords[j])})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })

	// Kruskal spanning forest first.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var links [][2]int
	used := make(map[[2]int]bool)
	for _, p := range cands {
		ra, rb := find(p.a), find(p.b)
		if ra != rb {
			parent[ra] = rb
			key := [2]int{p.a, p.b}
			links = append(links, key)
			used[key] = true
		}
	}
	// Top up with express inter-metro conduits. Endpoints are seed cities
	// (indices below len(usCities)); distances target the long-haul
	// corridor distribution rather than nearest neighbours.
	cityWeights := make([]float64, len(usCities))
	for i, c := range usCities {
		cityWeights[i] = c.Weight
	}
	// lnDist[a][j] is ln(d+1) of the haversine between cities a and j,
	// filled the first time a is drawn: the cities are fixed and the
	// draws repeat.
	lnDist := make([][]float64, len(usCities))
	scores := make([]float64, len(usCities))
	for guard := 0; len(links) < linkCount && guard < linkCount*50; guard++ {
		a := rng.Pick(cityWeights)
		target := rng.LogNormal(lnOf(180), 0.75)
		if target > 2500 {
			target = 2500
		}
		if lnDist[a] == nil {
			lnDist[a] = make([]float64, len(usCities))
			for j := range usCities {
				lnDist[a][j] = lnOf(geo.Haversine(usCities[a].Coord, usCities[j].Coord) + 1)
			}
		}
		lnTarget := lnOf(target)
		for j := range usCities {
			if j == a {
				scores[j] = 0
				continue
			}
			z := (lnDist[a][j] - lnTarget) / 0.4
			scores[j] = usCities[j].Weight * expNeg(z*z/2)
		}
		b := rng.Pick(scores)
		key := orderedPair(a, b)
		if a == b || used[key] {
			continue
		}
		used[key] = true
		links = append(links, key)
	}
	return links
}

func orderedPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
