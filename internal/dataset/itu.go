package dataset

import (
	"fmt"
	"strconv"
	"strings"

	"gicnet/internal/geo"
	"gicnet/internal/population"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// ITUConfig tunes the synthetic global land fiber network. Defaults are
// calibrated to the paper's ITU dataset statistics: 11,314 nodes and 11,737
// links, 8,443 links under 150 km, mean 0.63 repeaters per cable at 150 km.
// Like the real TIES dataset, the generated network exposes no coordinates
// (§4.1.3) — they exist only transiently to compute road-following lengths.
type ITUConfig struct {
	// Nodes and Links are the global totals (paper: 11314 / 11737).
	Nodes int
	// Links is the fiber link count.
	Links int
	// Clusters is the number of regional chains (national backbones).
	Clusters int
	// HopMedianKm / HopSigma shape intra-cluster link lengths.
	HopMedianKm float64
	HopSigma    float64
	// InterMedianKm / InterSigma shape inter-cluster links.
	InterMedianKm float64
	InterSigma    float64
	// RoadFactor converts geodesics to route lengths.
	RoadFactor float64
}

// DefaultITUConfig returns the calibrated defaults.
func DefaultITUConfig() ITUConfig {
	return ITUConfig{
		Nodes:         11314,
		Links:         11737,
		Clusters:      600,
		HopMedianKm:   70,
		HopSigma:      0.7,
		InterMedianKm: 250,
		InterSigma:    0.8,
		RoadFactor:    1.3,
	}
}

// GenerateITU synthesises the global land fiber network as population-
// weighted regional chains joined by longer inter-regional links.
func GenerateITU(cfg ITUConfig, rng *xrand.Source) (*topology.Network, error) {
	if cfg.Clusters <= 0 || cfg.Nodes < 2*cfg.Clusters {
		return nil, fmt.Errorf("dataset: ITU config needs >= 2 nodes per cluster")
	}
	chainLinks := cfg.Nodes - cfg.Clusters
	if cfg.Links < chainLinks {
		return nil, fmt.Errorf("dataset: %d links cannot cover %d chain hops", cfg.Links, chainLinks)
	}
	pop, err := population.New(2)
	if err != nil {
		return nil, err
	}

	net := &topology.Network{
		Name:   "itu",
		Nodes:  make([]topology.Node, 0, cfg.Nodes),
		Cables: make([]topology.Cable, 0, cfg.Links),
	}
	// Transient coordinates for length computation only.
	coords := make([]geo.Coord, 0, cfg.Nodes)
	clusterOf := make([]int, 0, cfg.Nodes)
	clusterNodes := make([][]int, cfg.Clusters)
	// Every node and link name is written into one buffer and every
	// link's single segment into one backing array; names become
	// substrings of the buffer's one string once generation is done.
	var names strings.Builder
	names.Grow(13*cfg.Nodes + 15*cfg.Links)
	digits := make([]byte, 0, 20)
	nodeNames := make([][2]int32, 0, cfg.Nodes) // [start, end) in names
	cableNames := make([][2]int32, 0, cfg.Links)
	segments := make([]topology.Segment, 0, cfg.Links)

	addNode := func(c geo.Coord, cluster int) int {
		idx := len(net.Nodes)
		// HasCoord deliberately false: the ITU dataset has no usable
		// coordinates (§4.1.3).
		net.Nodes = append(net.Nodes, topology.Node{HasCoord: false})
		start := int32(names.Len())
		names.WriteString("itu-c")
		names.Write(appendPadded(digits[:0], cluster, 3))
		names.WriteString("-n")
		names.Write(appendPadded(digits[:0], len(clusterNodes[cluster]), 2))
		nodeNames = append(nodeNames, [2]int32{start, int32(names.Len())})
		coords = append(coords, c)
		clusterOf = append(clusterOf, cluster)
		clusterNodes[cluster] = append(clusterNodes[cluster], idx)
		return idx
	}

	// Distribute nodes over clusters: every cluster gets 2, the remainder
	// is spread by a weighted pass so sizes vary like national backbones.
	sizes := make([]int, cfg.Clusters)
	for i := range sizes {
		sizes[i] = 2
	}
	for extra := cfg.Nodes - 2*cfg.Clusters; extra > 0; extra-- {
		sizes[rng.Intn(cfg.Clusters)]++
	}
	members := make([]int, cfg.Nodes) // every cluster's node list, end to end
	for cl, off := 0, 0; cl < cfg.Clusters; cl++ {
		clusterNodes[cl] = members[off : off : off+sizes[cl]]
		off += sizes[cl]
	}

	addCable := func(a, b int, lengthKm float64) {
		start := int32(names.Len())
		names.WriteString("itu-link-")
		names.Write(appendPadded(digits[:0], len(net.Cables), 5))
		cableNames = append(cableNames, [2]int32{start, int32(names.Len())})
		segments = append(segments, topology.Segment{A: a, B: b, LengthKm: lengthKm})
		k := len(segments)
		net.Cables = append(net.Cables, topology.Cable{
			Segments:    segments[k-1 : k : k],
			KnownLength: true,
		})
	}

	for cl := 0; cl < cfg.Clusters; cl++ {
		lat := pop.SampleLat(rng)
		lon := rng.Range(-180, 180)
		cur := geo.Coord{Lat: clampLat(lat), Lon: clampLon(lon)}
		prev := addNode(cur, cl)
		for k := 1; k < sizes[cl]; k++ {
			hop := rng.LogNormal(lnOf(cfg.HopMedianKm), cfg.HopSigma)
			if hop > 800 {
				hop = 800
			}
			cur = geo.Destination(cur, rng.Range(0, 360), hop)
			ni := addNode(cur, cl)
			addCable(prev, ni, hop*cfg.RoadFactor)
			prev = ni
		}
	}

	// First, a spanning pass over clusters guarantees one connected
	// network: each cluster joins the nearest already-connected cluster.
	centers := make([]geo.Coord, cfg.Clusters)
	for cl, nodes := range clusterNodes {
		centers[cl] = coords[nodes[len(nodes)/2]]
	}
	// Prim's algorithm over cluster centers: O(C^2) dot products, and a
	// haversine only for the pairs each cluster's screen admits.
	units := make([]geo.Vec, cfg.Clusters)
	for cl, c := range centers {
		units[cl] = geo.UnitVec(c)
	}
	inTree := make([]bool, cfg.Clusters)
	inTree[0] = true
	nearestTree := make([]int, cfg.Clusters)    // nearest in-tree cluster
	distToTree := make([]float64, cfg.Clusters) // distance to it
	screens := make([]geo.Screen, cfg.Clusters)
	for cl := 1; cl < cfg.Clusters; cl++ {
		nearestTree[cl] = 0
		distToTree[cl] = geo.Haversine(centers[cl], centers[0])
		screens[cl] = geo.NewScreen()
		screens[cl].Admit(units[cl].Dot(units[0]))
	}
	spanning := 0
	for added := 1; added < cfg.Clusters; added++ {
		bestTo, bestD := -1, 1e18
		for cl := 0; cl < cfg.Clusters; cl++ {
			if !inTree[cl] && distToTree[cl] < bestD {
				bestD, bestTo = distToTree[cl], cl
			}
		}
		bestFrom := nearestTree[bestTo]
		a := nearestNodeTo(coords, clusterNodes[bestFrom], centers[bestTo])
		b := nearestNodeTo(coords, clusterNodes[bestTo], coords[a])
		d := geo.Haversine(coords[a], coords[b]) * cfg.RoadFactor
		if d < 20 {
			d = 20
		}
		addCable(a, b, d)
		spanning++
		inTree[bestTo] = true
		for cl := 0; cl < cfg.Clusters; cl++ {
			if inTree[cl] || !screens[cl].Admit(units[cl].Dot(units[bestTo])) {
				continue
			}
			if nd := geo.Haversine(centers[cl], centers[bestTo]); nd < distToTree[cl] {
				distToTree[cl], nearestTree[cl] = nd, bestTo
			}
		}
	}

	// Remaining inter-cluster links join a random node of one cluster to a
	// lognormal-target-distance node of another cluster.
	inter := cfg.Links - chainLinks - spanning
	for k := 0; k < inter; k++ {
		a := rng.Intn(len(net.Nodes))
		target := rng.LogNormal(lnOf(cfg.InterMedianKm), cfg.InterSigma)
		if target > 3000 {
			target = 3000
		}
		best, bestScore := -1, -1.0
		// Sample candidates rather than scanning 11k nodes per link.
		for probe := 0; probe < 64; probe++ {
			j := rng.Intn(len(net.Nodes))
			if clusterOf[j] == clusterOf[a] {
				continue
			}
			d := geo.Haversine(coords[a], coords[j])
			z := (lnOf(d+1) - lnOf(target)) / 0.5
			score := expNeg(z * z / 2)
			if score > bestScore {
				bestScore, best = score, j
			}
		}
		if best < 0 {
			continue
		}
		d := geo.Haversine(coords[a], coords[best]) * cfg.RoadFactor
		if d < 20 {
			d = 20
		}
		addCable(a, best, d)
	}

	all := names.String()
	for i, span := range nodeNames {
		net.Nodes[i].Name = all[span[0]:span[1]]
	}
	for k, span := range cableNames {
		net.Cables[k].Name = all[span[0]:span[1]]
	}

	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: generated ITU network invalid: %w", err)
	}
	return net, nil
}

// appendPadded appends non-negative v in decimal, zero-padded to width
// digits: fmt's %0<width>d without the formatting machinery.
func appendPadded(b []byte, v, width int) []byte {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// nearestNodeTo returns the member of candidates whose coordinate is
// closest to target.
func nearestNodeTo(coords []geo.Coord, candidates []int, target geo.Coord) int {
	best, bestD := candidates[0], 1e18
	for _, n := range candidates {
		d := geo.Haversine(coords[n], target)
		if d < bestD {
			bestD, best = d, n
		}
	}
	return best
}
