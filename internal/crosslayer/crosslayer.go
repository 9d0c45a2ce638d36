// Package crosslayer scores physical cable failures at the logical layer:
// which AS pairs lose reachability and how many users are stranded when a
// trial's dead-cable set severs the topology. The paper stops at physical
// connectivity; Xaminer and Nautilus argue the metric that matters is
// cross-layer, and this package is the second consumer of the zero-alloc
// bitset trial kernel.
//
// The model compiles, once per world, a cable→AS-adjacency CSR:
//
//   - every distinct unordered node pair linked by at least one cable
//     segment becomes a pair-edge, carrying the sorted set of cables that
//     support it plus a (word, mask) projection of that set onto the
//     dead-cable bitset — a pair-edge is dead exactly when all of its
//     supporting cables are dead;
//   - every AS from the router catalog attaches to its nearest cable
//     node with coordinates (great-circle distance to the AS home, ties to
//     the lowest node index), weighted by the population latitude mass at
//     its home — AS user weights are normalised shares of world users;
//   - each attach node ("site") aggregates its ASes' counts, user shares,
//     and per-region user shares; the site with the largest user share is
//     the anchor, the proxy for "the Internet core".
//
// A trial score is then pure graph work: union alive pair-edges, count
// reachable AS pairs per component, and charge every user share outside
// the anchor's component as stranded.
//
// Determinism contract: a trial's Score depends only on that trial's dead
// bitset and the compiled index. The invariant both scoring paths (the
// scalar reference ScoreDead and the 64-trial bitsliced ScoreBatch) keep
// is the float order: the anchor component's user and region shares are
// added site by site in ascending node order, and finishScore does the
// rest of the arithmetic for both. The integer fields are sums over the
// partition, exact in any order. Equal partitions therefore produce
// bit-identical Scores regardless of path, block boundaries, or worker
// count.
package crosslayer

import (
	"errors"
	"math"
	"sort"

	"gicnet/internal/dataset"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/population"
	"gicnet/internal/routing"
	"gicnet/internal/topology"
)

// NumRegions is the number of report regions (geo.Regions()), fixed so
// Score can embed a flat array and stay allocation-free.
const NumRegions = 7

// Typed compile errors, so callers can distinguish unusable worlds from
// programming mistakes.
var (
	// ErrNoASes means the router catalog is nil or empty.
	ErrNoASes = errors.New("crosslayer: router catalog has no ASes")
	// ErrNoSites means no network node both touches a cable and has
	// coordinates, so ASes cannot be attached (the ITU star network, for
	// example, has coordinate-free nodes).
	ErrNoSites = errors.New("crosslayer: no located cable nodes to attach ASes to")
)

// Score is one trial's cross-layer damage summary.
type Score struct {
	// ReachablePairs counts unordered AS pairs that can still reach each
	// other over alive cables (pairs attached to the same site always can).
	ReachablePairs int64
	// StrandedASes counts ASes cut off from the anchor component.
	StrandedASes int64
	// StrandedShare is the user share cut off from the anchor component,
	// in [0, 1].
	StrandedShare float64
	// RegionStranded is the stranded user share by report region
	// (geo.Regions() order), each a fraction of total world users.
	RegionStranded [NumRegions]float64
	// DemandWeighted reweights RegionStranded by each region's share of
	// outbound inter-region traffic demand.
	DemandWeighted float64
}

// Index is the compiled cable→AS-adjacency CSR for one network and router
// catalog. It is immutable after Compile and safe to share across
// goroutines; all mutable scoring state lives in Scratch.
type Index struct {
	net      *topology.Network
	numNodes int
	words    int // dead-bitset words, graph.BitsetWords(len(net.Cables))

	// Pair-edges, a < b, sorted by (a, b).
	edgeA, edgeB []int32
	// Supporting cables per edge: cableList[cableStart[e]:cableStart[e+1]],
	// ascending.
	cableStart []int32
	cableList  []int32
	// Word projection per edge: the edge is dead iff for every row k in
	// [wordStart[e], wordStart[e+1]) dead[wordIdx[k]] covers wordMask[k].
	wordStart []int32
	wordIdx   []int32
	wordMask  []uint64
	// Reverse CSR: cableEdges[cableEdgeStart[c]:cableEdgeStart[c+1]] lists
	// the pair-edges cable c supports, ascending.
	cableEdgeStart []int32
	cableEdges     []int32

	// Sites: attach nodes in ascending node order, with aggregated AS
	// counts, user shares, and user shares by region (zero for a region
	// none of the site's ASes is homed in).
	sites      []int32
	siteCount  []int64
	siteUsers  []float64
	siteRegion [][NumRegions]float64
	siteOf     []int32 // node -> site index, -1 when the node has no ASes

	anchor      int32 // node index of the largest-user site
	totalAS     int64
	totalUsers  float64
	regionTotal [NumRegions]float64
	demand      [NumRegions]float64

	intact Score
}

// Network returns the network the index was compiled for. Scoring is only
// valid against dead bitsets drawn for this exact network.
func (x *Index) Network() *topology.Network { return x.net }

// Intact returns the score of the undamaged network, computed by the same
// scoring routine (so comparisons against it are bit-consistent).
func (x *Index) Intact() Score { return x.intact }

// Sites returns the number of attach nodes carrying at least one AS.
func (x *Index) Sites() int { return len(x.sites) }

// Edges returns the number of compiled pair-edges.
func (x *Index) Edges() int { return len(x.edgeA) }

// TotalASes returns the number of attached ASes.
func (x *Index) TotalASes() int64 { return x.totalAS }

// SiteOf returns the site index of a node, or -1 when no AS attaches
// there. Test/diagnostic accessor; not for hot paths.
func (x *Index) SiteOf(node int) int32 { return x.siteOf[node] }

// Compile builds the index for net from the catalog's AS presences and
// the demand matrix's region shares. Demands feed only the DemandWeighted
// reweighting; an all-zero matrix yields routing.ErrZeroDemand.
func Compile(net *topology.Network, cat *dataset.RouterCatalog, demands []routing.Demand) (*Index, error) {
	return compile(net, cat, demands, nearestCandidates)
}

// nearestFunc assigns each AS of cat to the position in cand of its
// nearest candidate node.
type nearestFunc func(net *topology.Network, cand []int32, cat *dataset.RouterCatalog) []int

// compile is Compile with the AS attachment search passed in, so tests can
// hold the screened search to the all-pairs scan it replaced.
func compile(net *topology.Network, cat *dataset.RouterCatalog, demands []routing.Demand, nearest nearestFunc) (*Index, error) {
	if net == nil {
		return nil, errors.New("crosslayer: nil network")
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if cat == nil || len(cat.ASes) == 0 {
		return nil, ErrNoASes
	}
	shares, err := routing.RegionShares(demands)
	if err != nil {
		return nil, err
	}

	numNodes := len(net.Nodes)
	x := &Index{
		net:      net,
		numNodes: numNodes,
		words:    graph.BitsetWords(len(net.Cables)),
	}

	// Candidate attach nodes: on a cable and located.
	touches := make([]bool, numNodes)
	for ci := range net.Cables {
		for _, s := range net.Cables[ci].Segments {
			touches[s.A] = true
			touches[s.B] = true
		}
	}
	var cand []int32
	for i := range net.Nodes {
		if touches[i] && net.Nodes[i].HasCoord {
			cand = append(cand, int32(i))
		}
	}
	if len(cand) == 0 {
		return nil, ErrNoSites
	}

	x.buildEdges(net)
	x.attachASes(cat, cand, nearest(net, cand, cat))

	regionOrder := geo.Regions()
	for i, r := range regionOrder {
		x.demand[i] = shares[r]
	}

	// Intact baseline through the real scoring path.
	var s Scratch
	s.Grow(x)
	x.intact = x.ScoreDead(make(graph.Bitset, x.words), &s)
	return x, nil
}

// buildEdges compiles the pair-edge CSRs from cable segments. Self-loop
// segments connect nothing and are dropped.
func (x *Index) buildEdges(net *topology.Network) {
	type pairCable struct {
		key   uint64 // a<<32 | b with a < b
		cable int32
	}
	var pairs []pairCable
	for ci := range net.Cables {
		for _, s := range net.Cables[ci].Segments {
			a, b := s.A, s.B
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, pairCable{uint64(a)<<32 | uint64(b), int32(ci)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].key != pairs[j].key {
			return pairs[i].key < pairs[j].key
		}
		return pairs[i].cable < pairs[j].cable
	})

	x.cableStart = append(x.cableStart, 0)
	x.wordStart = append(x.wordStart, 0)
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].key == pairs[i].key {
			j++
		}
		x.edgeA = append(x.edgeA, int32(pairs[i].key>>32))
		x.edgeB = append(x.edgeB, int32(pairs[i].key&0xffffffff))
		lastCable := int32(-1)
		lastWord := int32(-1)
		for k := i; k < j; k++ {
			c := pairs[k].cable
			if c == lastCable {
				continue
			}
			lastCable = c
			x.cableList = append(x.cableList, c)
			w, bit := c>>6, uint64(1)<<(uint(c)&63)
			if w == lastWord {
				x.wordMask[len(x.wordMask)-1] |= bit
			} else {
				lastWord = w
				x.wordIdx = append(x.wordIdx, w)
				x.wordMask = append(x.wordMask, bit)
			}
		}
		x.cableStart = append(x.cableStart, int32(len(x.cableList)))
		x.wordStart = append(x.wordStart, int32(len(x.wordIdx)))
		i = j
	}

	// Reverse CSR, cable -> supported edges, edges ascending per cable.
	numCables := len(net.Cables)
	counts := make([]int32, numCables+1)
	for _, c := range x.cableList {
		counts[c+1]++
	}
	for c := 0; c < numCables; c++ {
		counts[c+1] += counts[c]
	}
	x.cableEdgeStart = counts
	x.cableEdges = make([]int32, len(x.cableList))
	fill := make([]int32, numCables)
	for e := 0; e < len(x.edgeA); e++ {
		for k := x.cableStart[e]; k < x.cableStart[e+1]; k++ {
			c := x.cableList[k]
			x.cableEdges[x.cableEdgeStart[c]+fill[c]] = int32(e)
			fill[c]++
		}
	}
}

// nearestCandidates returns, per AS, the position in cand of the AS's
// nearest candidate node. Nearness uses the spherical law of cosines
// (monotone in great-circle distance, so the argmin matches
// geo.Haversine), ties to the lowest node index. A geo.Screen skips every
// candidate whose unit-vector dot product with the AS home proves it
// farther than one already seen, so only a handful of candidates per AS
// pay for the cosine.
func nearestCandidates(net *topology.Network, cand []int32, cat *dataset.RouterCatalog) []int {
	sinLat := make([]float64, len(cand))
	cosLat := make([]float64, len(cand))
	lon := make([]float64, len(cand))
	units := make([]geo.Vec, len(cand))
	for i, ni := range cand {
		c := net.Nodes[ni].Coord
		la := c.Lat * math.Pi / 180
		sinLat[i] = math.Sin(la)
		cosLat[i] = math.Cos(la)
		lon[i] = c.Lon * math.Pi / 180
		units[i] = geo.UnitVec(c)
	}
	out := make([]int, len(cat.ASes))
	for i := range cat.ASes {
		home := cat.ASes[i].Home
		la := home.Lat * math.Pi / 180
		lo := home.Lon * math.Pi / 180
		sa, ca := math.Sin(la), math.Cos(la)
		q := geo.UnitVec(home)
		screen := geo.NewScreen()
		best, bestCos := 0, -2.0
		for j, u := range units {
			if !screen.Admit(q.Dot(u)) {
				continue
			}
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

// attachASes attaches every AS to cand[nearest[i]] and aggregates per-site
// counts, user shares, and region shares.
func (x *Index) attachASes(cat *dataset.RouterCatalog, cand []int32, nearest []int) {
	weights := make([]float64, len(cat.ASes))
	totalRaw := 0.0
	for i := range cat.ASes {
		weights[i] = population.DensityAt(cat.ASes[i].Home.Lat)
		totalRaw += weights[i]
	}
	if !(totalRaw > 0) {
		// Degenerate catalog (all homes at zero-density latitudes, e.g.
		// fuzz inputs at the poles): fall back to uniform user weights.
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

	count := make([]int64, x.numNodes)
	users := make([]float64, x.numNodes)
	regionAcc := make([][NumRegions]float64, x.numNodes)
	for i := range cat.ASes {
		home := cat.ASes[i].Home
		node := cand[nearest[i]]
		share := weights[i] / totalRaw
		count[node]++
		users[node] += share
		if ri, ok := regionOf[geo.RegionOf(home)]; ok {
			regionAcc[node][ri] += share
		}
	}

	x.siteOf = make([]int32, x.numNodes)
	for i := range x.siteOf {
		x.siteOf[i] = -1
	}
	for ni := 0; ni < x.numNodes; ni++ {
		if count[ni] == 0 {
			continue
		}
		x.siteOf[ni] = int32(len(x.sites))
		x.sites = append(x.sites, int32(ni))
		x.siteCount = append(x.siteCount, count[ni])
		x.siteUsers = append(x.siteUsers, users[ni])
		x.siteRegion = append(x.siteRegion, regionAcc[ni])
	}

	// Totals in the exact order the anchor-component accumulation visits
	// them, so a fully connected trial strands exactly zero. Region masses
	// are never negative, and adding +0 to a non-negative sum returns it
	// unchanged, so a site's zero masses leave every total as it was.
	bestSite := 0
	for si := range x.sites {
		x.totalAS += x.siteCount[si]
		x.totalUsers += x.siteUsers[si]
		for ri, m := range &x.siteRegion[si] {
			x.regionTotal[ri] += m
		}
		if x.siteUsers[si] > x.siteUsers[bestSite] {
			bestSite = si
		}
	}
	x.anchor = x.sites[bestSite]
}

// Scratch holds all mutable scoring state so the hot calls never
// allocate. The zero value is ready for Grow; one Scratch serves one
// goroutine.
type Scratch struct {
	uf graph.UnionFind // full-graph components (scalar path, block-intact)

	// Scalar path: scoreFromRoots' first-seen component slots.
	siteRoot  []int32 // per site: component root (node id)
	remapGen  []uint32
	remapSlot []int32 // root -> first-seen slot, generation-stamped
	remapCtr  uint32
	slotCount []int64 // AS count per component slot

	// Batched path, per block: the touched-edge forest over compact labels
	// of block-intact components.
	cols        []uint64 // per-cable trial columns
	touched     []int32  // edges with a nonzero dead column this block
	touchedCol  []uint64
	touchedA    []int32 // compact labels of touched edge endpoints
	touchedB    []int32
	edgeSeen    []uint32 // per-edge stamps, shared counter edgeCtr
	edgeDead    []uint32
	edgeCtr     uint32
	siteLabel   []int32
	anchorLabel int32
	byDeaths    []int32 // touched edges by ascending dead-trial count
	treeFlag    []bool  // per touched edge: spanning-forest member
	extra       []int32 // cycle-closing touched edges (non-tree)
	adjStart    []int32 // forest adjacency CSR over compact labels
	adjList     []int32
	adjEdge     []int32
	parentLab   []int32  // per label: forest parent label, -1 at roots
	parentEdge  []int32  // per label: touched index of the parent edge
	order       []int32  // labels in preorder, parents before children
	stack       []int32  // DFS worklist
	nodeGen     []uint32 // root node -> label, generation-stamped
	nodeLabel   []int32
	nodeCtr     uint32
	nLabels     int32

	// Batched path, per block: the pruned forest by preorder position.
	labelAS   []int64  // per label: ASes attached
	pinned    []bool   // per label: carries ASes, the anchor or an extra end
	kids      []int32  // per label: children leading to a pinned label
	up        []int32  // per label: position its children hang under, -1 none
	acc       []uint64 // per label: dead column of the spliced path up to it
	pos       []int32  // per kept label: its position
	par       []int32  // per position: parent position (itself at a root)
	pcol      []uint64 // per position: parent edge's dead column, ^0 at a root
	asPos     []int32  // positions carrying ASes, ascending
	asCnt     []int64  // their AS counts
	asPairs   int64    // AS pairs within one position
	sitePos   []int32  // per site: its position
	extraA    []int32  // per extra: endpoint positions and dead column
	extraB    []int32
	extraCol  []uint64
	nPos      int
	nAS       int
	nExtra    int
	anchorPos int32

	// Batched path, per trial.
	id     []int32 // per position: component id
	rep    []int32 // per id: merge representative; the identity between trials
	merged []int32 // ids whose rep the current trial changed
	cnt    []int64 // per id: ASes
}

// Grow sizes the scratch for x, reusing backing arrays when large enough.
// Call once per (goroutine, index) before the trial loop.
func (s *Scratch) Grow(x *Index) {
	nSites, nEdges, nNodes := len(x.sites), len(x.edgeA), x.numNodes
	s.siteRoot = grow(s.siteRoot, nSites)
	s.remapGen = grow(s.remapGen, nNodes)
	s.remapSlot = grow(s.remapSlot, nNodes)
	s.slotCount = grow(s.slotCount, nSites)

	s.cols = grow(s.cols, x.words*64)
	s.touched = grow(s.touched, nEdges)
	s.touchedCol = grow(s.touchedCol, nEdges)
	s.touchedA = grow(s.touchedA, nEdges)
	s.touchedB = grow(s.touchedB, nEdges)
	s.edgeSeen = grow(s.edgeSeen, nEdges)
	s.edgeDead = grow(s.edgeDead, nEdges)
	s.siteLabel = grow(s.siteLabel, nSites)
	s.byDeaths = grow(s.byDeaths, nEdges)
	s.treeFlag = grow(s.treeFlag, nEdges)
	s.extra = grow(s.extra, nEdges)
	s.adjStart = grow(s.adjStart, nNodes+2)
	s.adjList = grow(s.adjList, 2*nEdges)
	s.adjEdge = grow(s.adjEdge, 2*nEdges)
	s.parentLab = grow(s.parentLab, nNodes+1)
	s.parentEdge = grow(s.parentEdge, nNodes+1)
	s.order = grow(s.order, nNodes+1)
	s.stack = grow(s.stack, nNodes+1)
	s.nodeGen = grow(s.nodeGen, nNodes)
	s.nodeLabel = grow(s.nodeLabel, nNodes)

	s.labelAS = grow(s.labelAS, nNodes)
	s.pinned = grow(s.pinned, nNodes)
	s.kids = grow(s.kids, nNodes)
	s.up = grow(s.up, nNodes)
	s.acc = grow(s.acc, nNodes)
	s.pos = grow(s.pos, nNodes)
	s.par = grow(s.par, nNodes)
	s.pcol = grow(s.pcol, nNodes)
	s.asPos = grow(s.asPos, nSites)
	s.asCnt = grow(s.asCnt, nSites)
	s.sitePos = grow(s.sitePos, nSites)
	s.extraA = grow(s.extraA, nEdges)
	s.extraB = grow(s.extraB, nEdges)
	s.extraCol = grow(s.extraCol, nEdges)

	s.id = grow(s.id, nNodes)
	s.rep = grow(s.rep, nNodes)
	for i := range s.rep {
		s.rep[i] = int32(i)
	}
	s.merged = grow(s.merged, nEdges)
	s.cnt = grow(s.cnt, nNodes)
}

// grow returns b resliced to n elements, reallocated only when its
// capacity is short.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// nextRemapGen advances the remap stamp, clearing on wraparound.
//
//gicnet:hotpath
//gicnet:pure allow=write:s
func (s *Scratch) nextRemapGen() uint32 {
	s.remapCtr++
	if s.remapCtr == 0 {
		for i := range s.remapGen {
			s.remapGen[i] = 0
		}
		s.remapCtr = 1
	}
	return s.remapCtr
}

// edgeDeadAt reports whether pair-edge e is severed by dead: every
// supporting cable's bit is set in every covering word.
//
//gicnet:hotpath
//gicnet:pure
func (x *Index) edgeDeadAt(e int, dead graph.Bitset) bool {
	for k := x.wordStart[e]; k < x.wordStart[e+1]; k++ {
		if dead[x.wordIdx[k]]&x.wordMask[k] != x.wordMask[k] {
			return false
		}
	}
	return true
}

// ScoreDead scores one trial's dead-cable bitset (graph.BitsetWords(
// len(net.Cables)) words, as produced by failure.Plan.SampleInto). It is
// the scalar reference path; ScoreBatch computes bit-identical Scores.
//
//gicnet:hotpath
//gicnet:pure allow=write:s
func (x *Index) ScoreDead(dead graph.Bitset, s *Scratch) Score {
	s.uf.Reset(x.numNodes)
	for e := 0; e < len(x.edgeA); e++ {
		if !x.edgeDeadAt(e, dead) {
			s.uf.Union(int(x.edgeA[e]), int(x.edgeB[e]))
		}
	}
	for si := 0; si < len(x.sites); si++ {
		s.siteRoot[si] = int32(s.uf.Find(int(x.sites[si])))
	}
	return x.scoreFromRoots(s, int32(s.uf.Find(int(x.anchor))))
}

// scoreFromRoots is the scalar reference accumulation: s.siteRoot holds,
// per site, any component identifier such that equal identifiers mean
// same component, and anchorRoot is the anchor's. It counts ASes per
// component in first-seen slots and adds the anchor component's user and
// region masses over the sites in ascending node order — the float order
// ScoreBatch keeps — so equal partitions yield bit-identical Scores.
//
//gicnet:hotpath
//gicnet:pure allow=write:s
func (x *Index) scoreFromRoots(s *Scratch, anchorRoot int32) Score {
	gen := s.nextRemapGen()
	nSlots := int32(0)
	var anchorCount int64
	var users, r0, r1, r2, r3, r4, r5, r6 float64 // as in scoreTrial
	for si := 0; si < len(x.sites); si++ {
		r := s.siteRoot[si]
		var slot int32
		if s.remapGen[r] == gen {
			slot = s.remapSlot[r]
		} else {
			s.remapGen[r] = gen
			slot = nSlots
			s.remapSlot[r] = slot
			s.slotCount[slot] = 0
			nSlots++
		}
		s.slotCount[slot] += x.siteCount[si]
		if r == anchorRoot {
			anchorCount += x.siteCount[si]
			users += x.siteUsers[si]
			m := &x.siteRegion[si]
			r0 += m[0]
			r1 += m[1]
			r2 += m[2]
			r3 += m[3]
			r4 += m[4]
			r5 += m[5]
			r6 += m[6]
		}
	}
	pairs := int64(0)
	for i := int32(0); i < nSlots; i++ {
		c := s.slotCount[i]
		pairs += c * (c - 1) / 2
	}
	region := [NumRegions]float64{r0, r1, r2, r3, r4, r5, r6}
	return x.finishScore(pairs, anchorCount, users, &region)
}

// finishScore assembles a Score from a partition's reachable AS pairs and
// the anchor component's AS count, user share and region masses, with the
// exact float expressions both scoring paths share — the divisions and the
// demand-weighted sum run here and nowhere else.
//
//gicnet:hotpath
//gicnet:pure
func (x *Index) finishScore(pairs, anchorCount int64, anchorUsers float64, anchorRegion *[NumRegions]float64) Score {
	sc := Score{ReachablePairs: pairs, StrandedASes: x.totalAS - anchorCount}
	if x.totalUsers > 0 {
		sc.StrandedShare = (x.totalUsers - anchorUsers) / x.totalUsers
		dw := 0.0
		for i := 0; i < NumRegions; i++ {
			rs := (x.regionTotal[i] - anchorRegion[i]) / x.totalUsers
			sc.RegionStranded[i] = rs
			dw += x.demand[i] * rs
		}
		sc.DemandWeighted = dw
	}
	return sc
}
