package graph

import "math/bits"

// CoreContraction is the offline dynamic-connectivity decomposition behind
// the Monte Carlo trial loops. Edges are grouped into failure classes (for
// cable networks, the owning cable) and split by an at-risk class set: the
// immortal core — every edge whose class can never die under the compiled
// failure plan — is contracted into supernodes once, and per-trial
// connectivity queries then union only the surviving at-risk edges over the
// contracted graph. Under the paper's models most of the graph is core
// (repeater-free and low-probability cables), so each trial touches a small
// frontier instead of every edge.
//
// The structure depends only on (graph, class map, at-risk set) — never on
// a particular trial's dead mask — and is immutable after construction, so
// one CoreContraction is shared safely by any number of concurrent workers,
// each querying through its own Scratch.
type CoreContraction struct {
	g          *Graph
	numClasses int

	// atRisk is the normalized at-risk class set (exactly numClasses bits),
	// kept so a cached contraction can prove it still matches a recompiled
	// plan (see Matches).
	atRisk Bitset

	// super maps every node to its supernode: the compact label of its
	// core connected component. Nodes untouched by core edges are their own
	// singleton supernodes, so node-level component counts are preserved.
	super    []int32
	numSuper int

	// The at-risk frontier, grouped by class in CSR form: class c's kept
	// edges are (edgeA[k], edgeB[k]) for k in [classStart[c],
	// classStart[c+1]), with endpoints already mapped to supernodes. Edges
	// whose endpoints share a supernode are dropped — the core keeps them
	// connected whatever the trial says.
	classStart []int32
	edgeA      []int32
	edgeB      []int32

	// riskClasses marks the classes that still own at least one kept edge;
	// per-trial queries scan only these words against the dead mask.
	riskClasses Bitset

	// Spanning forest of the contracted graph with every at-risk edge
	// alive, rooted per intact component. A trial that kills only a few
	// classes is answered on this forest instead of re-unioning the whole
	// frontier: the dead tree edges are "cuts", each alive supernode's
	// fragment is its nearest cut ancestor (an Euler-interval lookup over
	// the cut list), and only the non-tree edges can merge fragments back
	// together. All of it is immutable after construction.
	depth, tin, tout []int32 // per supernode: forest depth and Euler subtree interval [tin, tout)
	comp             []int32 // per supernode: component id of the intact contracted graph
	numComps         int
	cutChild         []int32 // per kept edge: child supernode if it is a forest edge, else -1
}

// bitAt is Bitset.Get with missing words reading as zero, so class sets and
// dead masks shorter (or longer) than the class count cannot panic: absent
// bits mean "not at risk" / "alive".
func bitAt(b Bitset, i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// NewCoreContraction builds the contraction of g against an at-risk class
// set. classOf maps each edge to its failure class and must have length
// g.NumEdges(); nil means every edge is its own class (class e = edge e),
// in which case numClasses is ignored. atRiskClasses marks the classes that
// can die; nil means every class is at risk (empty core). Bits beyond the
// class count are ignored, missing words read as not-at-risk.
func NewCoreContraction(g *Graph, classOf []int32, numClasses int, atRiskClasses Bitset) *CoreContraction {
	identity := classOf == nil
	if identity {
		numClasses = g.NumEdges()
	} else if len(classOf) != g.NumEdges() {
		panic("graph: NewCoreContraction class map length != edge count")
	}
	cc := &CoreContraction{g: g, numClasses: numClasses}

	// Normalize the at-risk set to exactly numClasses bits. All-risk (nil)
	// materializes as all ones so Matches compares representations, not
	// conventions.
	cc.atRisk = NewBitset(numClasses)
	for c := 0; c < numClasses; c++ {
		if atRiskClasses == nil || bitAt(atRiskClasses, c) {
			cc.atRisk.Set(c)
		}
	}

	classAt := func(e int) int {
		if identity {
			return e
		}
		return int(classOf[e])
	}

	// Union the core: every edge of a class that can never die.
	n := g.NumNodes()
	uf := NewUnionFind(n)
	for e := range g.edges {
		if !cc.atRisk.Get(classAt(e)) {
			uf.Union(int(g.edges[e].A), int(g.edges[e].B))
		}
	}
	cc.numSuper = uf.Sets()
	cc.super = make([]int32, n)
	labels, _ := uf.CompactLabels()
	for i, l := range labels {
		cc.super[i] = int32(l)
	}

	// Collect the at-risk frontier in class-grouped CSR form, dropping
	// edges contracted inside a single supernode.
	counts := make([]int32, numClasses+1)
	keep := func(e int) bool {
		return cc.atRisk.Get(classAt(e)) && cc.super[g.edges[e].A] != cc.super[g.edges[e].B]
	}
	for e := range g.edges {
		if keep(e) {
			counts[classAt(e)+1]++
		}
	}
	for c := 1; c <= numClasses; c++ {
		counts[c] += counts[c-1]
	}
	cc.classStart = append([]int32(nil), counts...)
	total := counts[numClasses]
	cc.edgeA = make([]int32, total)
	cc.edgeB = make([]int32, total)
	fill := append([]int32(nil), counts[:numClasses]...)
	cc.riskClasses = NewBitset(numClasses)
	for e := range g.edges {
		if !keep(e) {
			continue
		}
		c := classAt(e)
		k := fill[c]
		cc.edgeA[k] = cc.super[g.edges[e].A]
		cc.edgeB[k] = cc.super[g.edges[e].B]
		fill[c] = k + 1
		cc.riskClasses.Set(c)
	}
	cc.buildForest()
	return cc
}

// buildForest runs one DFS over the contracted graph with every at-risk
// edge alive, recording per supernode its depth, Euler subtree interval
// and intact-component id, and per kept edge whether it is a forest edge
// (and which supernode it hangs below). The forest is what lets per-trial
// queries scale with the number of DEAD classes instead of the number of
// alive edges: deleting a set of tree edges partitions the forest into
// fragments identified by nearest-cut-ancestor, and only non-tree edges
// can stitch fragments back together.
func (cc *CoreContraction) buildForest() {
	n := cc.numSuper
	m := len(cc.edgeA)
	cc.depth = make([]int32, n)
	cc.tin = make([]int32, n)
	cc.tout = make([]int32, n)
	cc.comp = make([]int32, n)
	cc.cutChild = make([]int32, m)
	for k := range cc.cutChild {
		cc.cutChild[k] = -1
	}

	// CSR adjacency over the kept edges, both directions.
	start := make([]int32, n+1)
	for k := 0; k < m; k++ {
		start[cc.edgeA[k]+1]++
		start[cc.edgeB[k]+1]++
	}
	for v := 1; v <= n; v++ {
		start[v] += start[v-1]
	}
	adjEdge := make([]int32, 2*m)
	pos := append([]int32(nil), start[:n]...)
	for k := 0; k < m; k++ {
		a, b := cc.edgeA[k], cc.edgeB[k]
		adjEdge[pos[a]] = int32(k)
		pos[a]++
		adjEdge[pos[b]] = int32(k)
		pos[b]++
	}

	visited := make([]bool, n)
	it := append([]int32(nil), start[:n]...)
	stack := make([]int32, 0, n)
	timer := int32(0)
	for r := 0; r < n; r++ {
		if visited[r] {
			continue
		}
		visited[r] = true
		cc.comp[r] = int32(cc.numComps)
		cc.tin[r] = timer
		timer++
		stack = append(stack[:0], int32(r))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			advanced := false
			for it[v] < start[v+1] {
				k := adjEdge[it[v]]
				it[v]++
				u := cc.edgeA[k]
				if u == v {
					u = cc.edgeB[k]
				}
				if visited[u] {
					continue
				}
				visited[u] = true
				cc.cutChild[k] = u
				cc.comp[u] = int32(cc.numComps)
				cc.depth[u] = cc.depth[v] + 1
				cc.tin[u] = timer
				timer++
				stack = append(stack, u)
				advanced = true
				break
			}
			if !advanced {
				cc.tout[v] = timer
				stack = stack[:len(stack)-1]
			}
		}
		cc.numComps++
	}
}

// Graph returns the graph the contraction was built over.
func (cc *CoreContraction) Graph() *Graph { return cc.g }

// NumSupernodes returns the node count of the contracted graph: the number
// of core connected components (isolated nodes are singleton supernodes).
func (cc *CoreContraction) NumSupernodes() int { return cc.numSuper }

// NumRiskEdges returns the number of at-risk edges kept after contraction —
// the per-trial union work in the worst case (every at-risk class dead-free).
func (cc *CoreContraction) NumRiskEdges() int { return len(cc.edgeA) }

// NumClasses returns the failure-class count the dead masks are indexed by.
func (cc *CoreContraction) NumClasses() int { return cc.numClasses }

// Super returns the supernode of node n.
func (cc *CoreContraction) Super(n NodeID) int32 { return cc.super[n] }

// SupersOf appends the distinct supernodes of nodes to dst and returns it.
// Hot loops resolve their query sets once and pass the result to
// AnyConnectedSupers trial after trial.
func (cc *CoreContraction) SupersOf(dst []int32, nodes []NodeID) []int32 {
	seen := make([]bool, cc.numSuper)
	for _, n := range nodes {
		s := cc.super[n]
		if !seen[s] {
			seen[s] = true
			dst = append(dst, s)
		}
	}
	return dst
}

// Matches reports whether the contraction was built over g with exactly the
// given at-risk class set (compared with missing-words-read-as-zero
// semantics). Plan-level caches use it to decide whether a recompile
// changed the immortal core.
func (cc *CoreContraction) Matches(g *Graph, atRiskClasses Bitset) bool {
	if cc.g != g {
		return false
	}
	n := len(cc.atRisk)
	if len(atRiskClasses) > n {
		n = len(atRiskClasses)
	}
	for wi := 0; wi < n; wi++ {
		var a, b uint64
		if wi < len(cc.atRisk) {
			a = cc.atRisk[wi]
		}
		if wi < len(atRiskClasses) {
			b = atRiskClasses[wi]
		}
		if tail := cc.numClasses - wi<<6; tail < 64 {
			var m uint64
			if tail > 0 {
				m = 1<<uint(tail) - 1
			}
			b &= m
		}
		if a != b {
			return false
		}
	}
	return true
}

// ComponentsCore unions the surviving at-risk edges of cc over its
// supernodes and returns the scratch union-find for Find/Connected/Sets
// queries (valid until the next Scratch call). deadClasses is the packed
// dead-class mask of one trial: class c's edges are alive iff bit c is
// zero; nil means everything is alive. Masks of any length are accepted —
// missing words read as alive, stray bits beyond the class count are
// ignored — so malformed input cannot panic or corrupt the query.
//
// Component counts are node-level exact: Sets() equals what ComponentsBits
// reports over the full graph for the same trial, because every node maps
// to exactly one supernode and core edges can never die.
//
//gicnet:hotpath
func (s *Scratch) ComponentsCore(cc *CoreContraction, deadClasses Bitset) *UnionFind {
	if cc.g != s.g {
		panic("graph: Scratch and CoreContraction bound to different graphs")
	}
	s.uf.Reset(cc.numSuper)
	for wi, w := range cc.riskClasses {
		alive := w
		if wi < len(deadClasses) {
			alive &^= deadClasses[wi]
		}
		for alive != 0 {
			c := wi<<6 + bits.TrailingZeros64(alive)
			alive &= alive - 1
			for k := cc.classStart[c]; k < cc.classStart[c+1]; k++ {
				s.uf.Union(int(cc.edgeA[k]), int(cc.edgeB[k]))
			}
		}
	}
	return s.uf
}

// forestCutBudget bounds how many cuts (dead forest edges) the forest
// query path collects before giving up: past it the trial is dense enough
// that re-unioning the frontier outright is cheaper than reasoning about
// deletions, and the aborted scan has cost far less than one such union
// pass.
const forestCutBudget = 64

// forestCuts collects the child supernodes of the forest edges killed by
// deadClasses into the scratch cut buffer. It reports ok=false (and leaves
// the caller to take the fallback path) once the count exceeds budget —
// with that many deletions, re-unioning the frontier is cheaper than
// per-vertex cut scans.
//
//gicnet:hotpath allow=append
func (s *Scratch) forestCuts(cc *CoreContraction, deadClasses Bitset, budget int) ([]int32, bool) {
	cuts := s.cuts[:0]
	nw := len(cc.riskClasses)
	if len(deadClasses) < nw {
		nw = len(deadClasses)
	}
	for wi := 0; wi < nw; wi++ {
		d := cc.riskClasses[wi] & deadClasses[wi]
		for d != 0 {
			c := wi<<6 + bits.TrailingZeros64(d)
			d &= d - 1
			for k := cc.classStart[c]; k < cc.classStart[c+1]; k++ {
				if ch := cc.cutChild[k]; ch >= 0 {
					cuts = append(cuts, ch)
				}
			}
		}
		if len(cuts) > budget {
			s.cuts = cuts
			return nil, false
		}
	}
	s.cuts = cuts
	return cuts, true
}

// underCut reports whether supernode v lies below any of the cuts — i.e.
// some dead forest edge separates it from its component root.
//
//gicnet:hotpath
func underCut(cc *CoreContraction, cuts []int32, v int32) bool {
	t := cc.tin[v]
	for _, ch := range cuts {
		if cc.tin[ch] <= t && t < cc.tout[ch] {
			return true
		}
	}
	return false
}

// rootComp returns the component of the first supernode in set that kept
// its attachment to the forest root this trial. At low failure rates that
// is nearly always set[0], which is what makes the root-root shortcut in
// AnyConnectedSupers an O(cuts) verdict.
//
//gicnet:hotpath
func rootComp(cc *CoreContraction, cuts []int32, set []int32) (int32, bool) {
	for _, sp := range set {
		if !underCut(cc, cuts, sp) {
			return cc.comp[sp], true
		}
	}
	return 0, false
}

// AnyConnectedSupers reports whether any supernode of fromSupers shares a
// component with any supernode of toSupers in the trial described by
// deadClasses, answered on the contracted graph. The query sets are
// already resolved to distinct supernodes (see SupersOf), saving the
// per-node super lookups in trial loops that ask about the same pair
// thousands of times. It is the one-query form of Trial and Connected.
//
//gicnet:hotpath
func (s *Scratch) AnyConnectedSupers(cc *CoreContraction, deadClasses Bitset, fromSupers, toSupers []int32) bool {
	return s.Trial(cc, deadClasses).Connected(fromSupers, toSupers)
}

// CoreTrial is one trial of a contraction, read by any number of
// connectivity queries. The trial's forest cuts are collected on the first
// query, and its component labels (one ComponentsCore union) are built on
// the first query the root-root shortcut cannot settle, so a trial pays
// for at most one union however many queries read it. A CoreTrial lives in
// the Scratch that began it and is valid until that Scratch's next call.
type CoreTrial struct {
	s    *Scratch
	cc   *CoreContraction
	dead Bitset
	// cuts holds the dead forest edges when cutsOK; cutsDone and labeled
	// record which of the two lazy steps have run.
	cuts                      []int32
	cutsDone, cutsOK, labeled bool
}

// Trial begins a trial of cc whose dead-class mask is deadClasses (nil
// means everything is alive; masks of any length are accepted, as by
// ComponentsCore). Nothing is computed until a query asks.
//
//gicnet:hotpath
func (s *Scratch) Trial(cc *CoreContraction, deadClasses Bitset) *CoreTrial {
	if cc.g != s.g {
		panic("graph: Scratch and CoreContraction bound to different graphs")
	}
	s.trial = CoreTrial{s: s, cc: cc, dead: deadClasses}
	return &s.trial
}

// Connected reports whether any supernode of fromSupers shares a component
// with any supernode of toSupers in the trial. Trials that kill few classes
// try the forest first (work proportional to the deletions); a miss, or a
// mask too dense for the forest, reads the trial's component labels. Both
// paths are exact, so the verdict never depends on which one ran.
//
//gicnet:hotpath
func (t *CoreTrial) Connected(fromSupers, toSupers []int32) bool {
	cc := t.cc
	if !t.cutsDone {
		t.cuts, t.cutsOK = t.s.forestCuts(cc, t.dead, forestCutBudget)
		t.cutsDone = true
	}
	if t.cutsOK {
		// Root-root shortcut: a from-vertex and a to-vertex that both kept
		// their attachment to the same component root share the root
		// fragment — connected, regardless of what else died, because the
		// two root paths are all-alive tree edges. At low failure rates
		// this settles the verdict after ~two vertex checks, making the
		// query sublinear in the frontier. A miss (one side entirely below
		// cuts, or split across components) proves nothing and falls
		// through to the exact labels below.
		if cf, okf := rootComp(cc, t.cuts, fromSupers); okf {
			for _, sp := range toSupers {
				if cc.comp[sp] == cf && !underCut(cc, t.cuts, sp) {
					return true
				}
			}
		}
	}
	t.label()
	s := t.s
	stamp := s.nextStamp()
	for _, sp := range fromSupers {
		s.seen[s.uf.Find(int(sp))] = stamp
	}
	for _, sp := range toSupers {
		if s.seen[s.uf.Find(int(sp))] == stamp {
			return true
		}
	}
	return false
}

// Root returns the component representative of supernode sp in the trial:
// two supernodes are connected exactly when their roots are equal. The
// first call builds the trial's labels if no query has yet.
//
//gicnet:hotpath
func (t *CoreTrial) Root(sp int32) int32 {
	t.label()
	return int32(t.s.uf.Find(int(sp)))
}

// label builds the trial's component labels once.
//
//gicnet:hotpath
func (t *CoreTrial) label() {
	if !t.labeled {
		t.s.ComponentsCore(t.cc, t.dead)
		t.labeled = true
	}
}
