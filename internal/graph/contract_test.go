package graph

import (
	"fmt"
	"testing"

	"gicnet/internal/xrand"
)

// randomContractionCase is one (graph, class map, at-risk set) triple of the
// differential harness.
type randomContractionCase struct {
	g          *Graph
	classOf    []int32 // nil = identity classes
	numClasses int
	atRisk     Bitset
}

// buildCase generates a random multigraph (self-loops and parallel edges
// allowed, plus isolated nodes) with either identity classes or a random
// many-edges-per-class grouping, and an at-risk class set drawn with
// probability riskP per class.
func buildCase(r *xrand.Source, riskP float64) randomContractionCase {
	n := 1 + r.Intn(48)
	m := r.Intn(3 * n)
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for e := 0; e < m; e++ {
		g.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
	}
	c := randomContractionCase{g: g, numClasses: m}
	if m > 0 && r.Bool(0.5) {
		c.numClasses = 1 + r.Intn(m)
		c.classOf = make([]int32, m)
		for e := range c.classOf {
			c.classOf[e] = int32(r.Intn(c.numClasses))
		}
	}
	c.atRisk = NewBitset(c.numClasses)
	for ci := 0; ci < c.numClasses; ci++ {
		if r.Bool(riskP) {
			c.atRisk.Set(ci)
		}
	}
	return c
}

// effectiveDeadEdges projects a dead-class mask onto edges exactly as the
// contraction semantics define it: an edge is dead iff its class is at risk
// AND the mask kills that class. This is the reference input for the direct
// ComponentsBits / BFS paths.
func (c randomContractionCase) effectiveDeadEdges(deadClasses Bitset) Bitset {
	dead := NewBitset(c.g.NumEdges())
	for e := 0; e < c.g.NumEdges(); e++ {
		class := e
		if c.classOf != nil {
			class = int(c.classOf[e])
		}
		if bitAt(c.atRisk, class) && bitAt(deadClasses, class) {
			dead.Set(e)
		}
	}
	return dead
}

// checkAgreement cross-checks the contracted engine against both direct
// references — ComponentsBits (union-find) and Scratch.Reachable (BFS) — on
// one (graph, plan, mask) triple: identical component count, identical
// node partition, identical pair verdicts.
func checkAgreement(t *testing.T, c randomContractionCase, cc *CoreContraction, deadClasses Bitset, r *xrand.Source) {
	t.Helper()
	g := c.g
	n := g.NumNodes()
	deadEdges := c.effectiveDeadEdges(deadClasses)

	scratchDirect := g.NewScratch()
	ufDirect := scratchDirect.ComponentsBits(deadEdges)
	directLabels := make([]int, n)
	for i := 0; i < n; i++ {
		directLabels[i] = ufDirect.Find(i)
	}
	directSets := ufDirect.Sets()

	scratchCore := g.NewScratch()
	ufCore := scratchCore.ComponentsCore(cc, deadClasses)
	coreLabels := make([]int, n)
	for i := 0; i < n; i++ {
		coreLabels[i] = ufCore.Find(int(cc.Super(NodeID(i))))
	}
	if coreSets := ufCore.Sets(); coreSets != directSets {
		t.Fatalf("component count: contracted %d, direct %d (n=%d m=%d supers=%d risk-edges=%d)",
			coreSets, directSets, n, g.NumEdges(), cc.NumSupernodes(), cc.NumRiskEdges())
	}

	// BFS reference: flood-fill components through Reachable, which tests
	// each edge with Get rather than walking the set's words.
	bfsLabels := make([]int, n)
	for i := range bfsLabels {
		bfsLabels[i] = -1
	}
	bfsComponents := 0
	var buf []NodeID
	for start := 0; start < n; start++ {
		if bfsLabels[start] >= 0 {
			continue
		}
		var err error
		buf, err = scratchDirect.Reachable(buf[:0], NodeID(start), deadEdges)
		if err != nil {
			t.Fatalf("Reachable(%d): %v", start, err)
		}
		for _, node := range buf {
			bfsLabels[node] = bfsComponents
		}
		bfsComponents++
	}
	if bfsComponents != directSets {
		t.Fatalf("BFS sees %d components, union-find %d", bfsComponents, directSets)
	}

	// Same partition: every pair of nodes must get the same verdict from
	// all three engines.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			direct := directLabels[a] == directLabels[b]
			core := coreLabels[a] == coreLabels[b]
			bfs := bfsLabels[a] == bfsLabels[b]
			if core != direct || bfs != direct {
				t.Fatalf("partition verdict (%d,%d): contracted %v, direct %v, bfs %v", a, b, core, direct, bfs)
			}
		}
	}

	// Country-pair style verdicts over random node sets, through the
	// precomputed-supernode query form: one trial per query, and all the
	// queries on one shared trial, whose roots must then partition the
	// nodes as the direct engine does.
	trial := g.NewScratch().Trial(cc, deadClasses)
	for q := 0; q < 4; q++ {
		from := randomNodeSet(r, n)
		to := randomNodeSet(r, n)
		direct := scratchDirect.AnyConnectedBits(deadEdges, from, to)
		fromS := cc.SupersOf(nil, from)
		toS := cc.SupersOf(nil, to)
		if got := scratchCore.AnyConnectedSupers(cc, deadClasses, fromS, toS); got != direct {
			t.Fatalf("AnyConnectedSupers(%v,%v) = %v, direct %v", from, to, got, direct)
		}
		if got := trial.Connected(fromS, toS); got != direct {
			t.Fatalf("shared trial query %d: Connected(%v,%v) = %v, direct %v", q, from, to, got, direct)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			got := trial.Root(cc.Super(NodeID(a))) == trial.Root(cc.Super(NodeID(b)))
			if want := directLabels[a] == directLabels[b]; got != want {
				t.Fatalf("shared trial roots (%d,%d): connected %v, direct %v", a, b, got, want)
			}
		}
	}
}

func randomNodeSet(r *xrand.Source, n int) []NodeID {
	out := make([]NodeID, 1+r.Intn(4))
	for i := range out {
		out[i] = NodeID(r.Intn(n))
	}
	return out
}

// TestCoreContractionMatchesDirect is the differential harness of the PR:
// 200+ randomized (graph, plan, dead-mask) triples on which the contracted
// engine must agree exactly with Scratch.ComponentsBits and plain BFS —
// same component count, same node partition, same pair verdicts.
func TestCoreContractionMatchesDirect(t *testing.T) {
	rng := xrand.New(0xc0de)
	triples := 0
	for gi := 0; gi < 60; gi++ {
		r := rng.SplitAt(uint64(gi))
		riskP := []float64{0.1, 0.3, 0.7, 0.95}[gi%4]
		c := buildCase(&r, riskP)
		cc := NewCoreContraction(c.g, c.classOf, c.numClasses, c.atRisk)
		if got := cc.NumSupernodes(); got > c.g.NumNodes() || got < 1 {
			t.Fatalf("graph %d: %d supernodes for %d nodes", gi, got, c.g.NumNodes())
		}
		for mi := 0; mi < 4; mi++ {
			deadClasses := NewBitset(c.numClasses)
			switch mi {
			case 0: // random mask
				for ci := 0; ci < c.numClasses; ci++ {
					if r.Bool(0.4) {
						deadClasses.Set(ci)
					}
				}
			case 1: // nothing dies
			case 2: // every class dies (kills every at-risk cable)
				for ci := 0; ci < c.numClasses; ci++ {
					deadClasses.Set(ci)
				}
			case 3: // exactly the at-risk classes die
				deadClasses.CopyFrom(c.atRisk)
			}
			checkAgreement(t, c, cc, deadClasses, &r)
			triples++
		}
	}
	if triples < 200 {
		t.Fatalf("only %d triples exercised, want >= 200", triples)
	}
}

// TestCoreContractionEdgeCases pins the boundary configurations by
// construction rather than by luck of the RNG draw.
func TestCoreContractionEdgeCases(t *testing.T) {
	rng := xrand.New(0xedce)

	t.Run("empty-core", func(t *testing.T) {
		// Every class at risk: the contraction degenerates to the identity
		// (one supernode per node) and must still agree everywhere.
		r := rng.SplitAt(1)
		c := buildCase(&r, 1.1) // riskP > 1: every class at risk
		cc := NewCoreContraction(c.g, c.classOf, c.numClasses, c.atRisk)
		if cc.NumSupernodes() != c.g.NumNodes() {
			t.Fatalf("empty core: %d supernodes, want %d", cc.NumSupernodes(), c.g.NumNodes())
		}
		mask := NewBitset(c.numClasses)
		for ci := 0; ci < c.numClasses; ci++ {
			if r.Bool(0.5) {
				mask.Set(ci)
			}
		}
		checkAgreement(t, c, cc, mask, &r)
	})

	t.Run("all-core", func(t *testing.T) {
		// No class at risk: the whole graph contracts away and a trial is
		// zero union operations regardless of the mask.
		r := rng.SplitAt(2)
		c := buildCase(&r, 0) // riskP 0: nothing at risk
		cc := NewCoreContraction(c.g, c.classOf, c.numClasses, c.atRisk)
		if cc.NumRiskEdges() != 0 {
			t.Fatalf("all-core contraction kept %d risk edges", cc.NumRiskEdges())
		}
		all := NewBitset(c.numClasses)
		for ci := 0; ci < c.numClasses; ci++ {
			all.Set(ci)
		}
		checkAgreement(t, c, cc, all, &r)
	})

	t.Run("single-node-islands", func(t *testing.T) {
		// Isolated nodes (degree zero) must stay singleton supernodes and
		// singleton components on every path.
		g := New()
		for i := 0; i < 7; i++ {
			g.AddNode(fmt.Sprintf("i%d", i))
		}
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		atRisk := NewBitset(2)
		atRisk.Set(1)
		c := randomContractionCase{g: g, numClasses: 2, atRisk: atRisk}
		cc := NewCoreContraction(g, nil, 0, atRisk)
		if cc.NumSupernodes() != 6 { // {0,1} fused by core edge 0; nodes 2..6 solo
			t.Fatalf("supernodes = %d, want 6", cc.NumSupernodes())
		}
		r := rng.SplitAt(3)
		for _, mask := range []Bitset{nil, {0b01}, {0b10}, {0b11}} {
			m := mask
			if m == nil {
				m = NewBitset(2)
			}
			checkAgreement(t, c, cc, m, &r)
		}
	})

	t.Run("single-node-graph", func(t *testing.T) {
		g := New()
		g.AddNode("only")
		cc := NewCoreContraction(g, nil, 0, nil)
		s := g.NewScratch()
		if uf := s.ComponentsCore(cc, nil); uf.Sets() != 1 {
			t.Fatalf("single node: %d components", uf.Sets())
		}
	})

	t.Run("kill-every-at-risk-cable", func(t *testing.T) {
		// Dead mask = the at-risk set itself: the trial partition must be
		// exactly the core partition.
		r := rng.SplitAt(4)
		c := buildCase(&r, 0.5)
		cc := NewCoreContraction(c.g, c.classOf, c.numClasses, c.atRisk)
		dead := NewBitset(c.numClasses)
		dead.CopyFrom(c.atRisk)
		s := c.g.NewScratch()
		if got, want := s.ComponentsCore(cc, dead).Sets(), cc.NumSupernodes(); got != want {
			t.Fatalf("all-at-risk-dead: %d components, want the %d core components", got, want)
		}
		checkAgreement(t, c, cc, dead, &r)
	})
}

// TestCoreContractionMalformedMasks pins the guarded-access contract: dead
// masks shorter or longer than the class count, or with stray bits past the
// class count, must behave as if the missing/extra bits were benign.
func TestCoreContractionMalformedMasks(t *testing.T) {
	rng := xrand.New(0xbadb17)
	r := rng.SplitAt(0)
	c := buildCase(&r, 0.6)
	cc := NewCoreContraction(c.g, c.classOf, c.numClasses, c.atRisk)
	s := c.g.NewScratch()

	reference := s.ComponentsCore(cc, nil).Sets()
	for _, mask := range []Bitset{
		nil,
		{},                 // zero words
		make(Bitset, 1000), // far longer than the class count, all alive
	} {
		if got := s.ComponentsCore(cc, mask).Sets(); got != reference {
			t.Fatalf("benign mask %v: %d components, want %d", mask, got, reference)
		}
	}

	// A mask of all-ones words far past the class count must match the
	// properly-sized all-dead mask.
	huge := make(Bitset, 64)
	for i := range huge {
		huge[i] = ^uint64(0)
	}
	sized := NewBitset(c.numClasses)
	for ci := 0; ci < c.numClasses; ci++ {
		sized.Set(ci)
	}
	if got, want := s.ComponentsCore(cc, huge).Sets(), s.ComponentsCore(cc, sized).Sets(); got != want {
		t.Fatalf("oversized all-dead mask: %d components, want %d", got, want)
	}
	checkAgreement(t, c, cc, huge, &r)
}

// TestCoreContractionMatches pins the cache-key semantics Plan.Contraction
// relies on.
func TestCoreContractionMatches(t *testing.T) {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	atRisk := NewBitset(3)
	atRisk.Set(1)
	cc := NewCoreContraction(g, nil, 0, atRisk)

	if !cc.Matches(g, atRisk) {
		t.Error("contraction does not match its own inputs")
	}
	withStray := Bitset{atRisk[0] | 1<<63} // stray bit past the class count
	if !cc.Matches(g, withStray) {
		t.Error("stray bits beyond the class count must not break a match")
	}
	other := NewBitset(3)
	other.Set(0)
	if cc.Matches(g, other) {
		t.Error("different at-risk set must not match")
	}
	g2 := New()
	g2.AddNode("x")
	if cc.Matches(g2, atRisk) {
		t.Error("different graph must not match")
	}
}
