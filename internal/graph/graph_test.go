package graph

import (
	"errors"
	"testing"
	"testing/quick"

	"gicnet/internal/xrand"
)

// buildPath returns a path graph 0-1-2-...-n-1 and its edge IDs.
func buildPath(n int) (*Graph, []EdgeID) {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	edges := make([]EdgeID, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, g.AddEdge(NodeID(i), NodeID(i+1)))
	}
	return g, edges
}

func TestAddNodeEdgeCounts(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	e := g.AddEdge(a, b)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if got := g.EdgeAt(e); got.A != a || got.B != b {
		t.Errorf("EdgeAt = %+v", got)
	}
	if lbl, err := g.Label(a); err != nil || lbl != "a" {
		t.Errorf("Label = %q, %v", lbl, err)
	}
	if _, err := g.Label(NodeID(99)); err == nil {
		t.Error("Label(99) should error")
	}
}

func TestAddEdgePanicsOnBadNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g := New()
	g.AddNode("only")
	g.AddEdge(0, 5)
}

func TestOtherAndDegree(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	e := g.AddEdge(a, b)
	if g.Other(e, a) != b || g.Other(e, b) != a {
		t.Error("Other broken")
	}
	loop := g.AddEdge(a, a)
	if g.Other(loop, a) != a {
		t.Error("self-loop Other broken")
	}
	if g.Degree(a) != 2 || g.Degree(b) != 1 {
		t.Errorf("degrees = %d, %d", g.Degree(a), g.Degree(b))
	}
}

func TestComponentsAllAlive(t *testing.T) {
	g, _ := buildPath(5)
	g.AddNode("isolated")
	labels, count := g.Components(nil)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	for i := 1; i < 5; i++ {
		if labels[i] != labels[0] {
			t.Errorf("path node %d in different component", i)
		}
	}
	if labels[5] == labels[0] {
		t.Error("isolated node joined the path")
	}
}

func TestComponentsWithMask(t *testing.T) {
	g, edges := buildPath(5)
	dead := NewBitset(len(edges))
	dead.Set(2) // cut 2-3
	labels, count := g.Components(dead)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] {
		t.Errorf("unexpected labels %v", labels)
	}
}

func TestParallelEdgesRedundancy(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	e1 := g.AddEdge(a, b)
	g.AddEdge(a, b)
	dead := NewBitset(g.NumEdges())
	dead.Set(int(e1))
	labels, count := g.Components(dead)
	if count != 1 || labels[a] != labels[b] {
		t.Errorf("labels %v (%d components): the parallel edge should keep a and b connected", labels, count)
	}
}

func TestReachable(t *testing.T) {
	g, edges := buildPath(6)
	dead := NewBitset(len(edges))
	dead.Set(3) // cut 3-4
	s := g.NewScratch()
	got, err := s.Reachable(nil, 0, dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("reachable = %d nodes, want 4", len(got))
	}
	for _, n := range got {
		if n == 4 || n == 5 {
			t.Error("nodes beyond the cut should be unreachable")
		}
	}
	if _, err := s.Reachable(nil, NodeID(-1), nil); err == nil {
		t.Error("Reachable(-1) should error")
	}
}

// isolated returns the nodes that have edges but share a component with
// no other node once dead is removed — the paper's unreachable nodes
// (§4.3.1), read from Components labels.
func isolated(g *Graph, dead Bitset) []NodeID {
	labels, count := g.Components(dead)
	size := make([]int, count)
	for _, l := range labels {
		size[l]++
	}
	var out []NodeID
	for n, l := range labels {
		if g.Degree(NodeID(n)) > 0 && size[l] == 1 {
			out = append(out, NodeID(n))
		}
	}
	return out
}

func TestIsolated(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddNode("never-connected")
	e1 := g.AddEdge(a, b)
	g.AddEdge(b, c)
	dead := NewBitset(g.NumEdges())
	dead.Set(int(e1))
	iso := isolated(g, dead)
	if len(iso) != 1 || iso[0] != a {
		t.Errorf("isolated = %v, want [a]; node with an alive edge or no edges must not count", iso)
	}
}

func TestIsolatedAllDead(t *testing.T) {
	g, edges := buildPath(4)
	dead := NewBitset(len(edges))
	dead.SetRange(0, len(edges))
	if iso := isolated(g, dead); len(iso) != 4 {
		t.Errorf("all-dead path: %d isolated, want 4", len(iso))
	}
}

func TestLargestComponentSize(t *testing.T) {
	g := New()
	for i := 0; i < 7; i++ {
		g.AddNode("")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	labels, count := g.Components(nil)
	size := make([]int, count)
	largest := 0
	for _, l := range labels {
		size[l]++
		largest = max(largest, size[l])
	}
	if largest != 3 {
		t.Errorf("largest component holds %d nodes, want 3", largest)
	}
}

func TestSameComponentErrors(t *testing.T) {
	g, _ := buildPath(2)
	if _, err := g.NewScratch().Reachable(nil, NodeID(9), nil); !errors.Is(err, ErrBadNode) {
		t.Errorf("same-component query from node 9 of 2: err %v, want ErrBadNode", err)
	}
}

func TestArticulationPointsPath(t *testing.T) {
	g, _ := buildPath(5)
	aps := g.ArticulationPoints()
	want := []NodeID{1, 2, 3}
	if len(aps) != len(want) {
		t.Fatalf("APs = %v, want %v", aps, want)
	}
	for i := range want {
		if aps[i] != want[i] {
			t.Fatalf("APs = %v, want %v", aps, want)
		}
	}
}

func TestArticulationPointsCycle(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		g.AddNode("")
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%5))
	}
	if aps := g.ArticulationPoints(); len(aps) != 0 {
		t.Errorf("cycle has no APs, got %v", aps)
	}
}

func TestArticulationPointsBridgeBetweenCycles(t *testing.T) {
	// two triangles joined at node 2 via node 3: 0-1-2-0, 3-4-5-3, edge 2-3
	g := New()
	for i := 0; i < 6; i++ {
		g.AddNode("")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	g.AddEdge(2, 3)
	aps := g.ArticulationPoints()
	if len(aps) != 2 || aps[0] != 2 || aps[1] != 3 {
		t.Errorf("APs = %v, want [2 3]", aps)
	}
}

func TestArticulationPointsParallelEdge(t *testing.T) {
	// 0=1-2 : parallel edges between 0 and 1, bridge 1-2.
	// Node 1 is an AP (cuts off 2); node 0 is not.
	g := New()
	for i := 0; i < 3; i++ {
		g.AddNode("")
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	aps := g.ArticulationPoints()
	if len(aps) != 1 || aps[0] != 1 {
		t.Errorf("APs = %v, want [1]", aps)
	}
}

func TestArticulationPointsSelfLoop(t *testing.T) {
	g, _ := buildPath(3)
	g.AddEdge(1, 1) // self loop must not crash or change AP status semantics
	aps := g.ArticulationPoints()
	if len(aps) != 1 || aps[0] != 1 {
		t.Errorf("APs = %v, want [1]", aps)
	}
}

func TestArticulationPointsLargePathIterative(t *testing.T) {
	// Deep path exercises the iterative implementation (recursive version
	// would blow the stack far later, but depth 50k is a sanity check).
	const n = 50000
	g, _ := buildPath(n)
	aps := g.ArticulationPoints()
	if len(aps) != n-2 {
		t.Errorf("path of %d: %d APs, want %d", n, len(aps), n-2)
	}
}

func TestComponentsMatchReachableProperty(t *testing.T) {
	// Random graph + random dead set: nodes are in the same component iff
	// mutually reachable by BFS.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode("")
		}
		m := rng.Intn(60)
		dead := NewBitset(m)
		for i := 0; i < m; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
			if !rng.Bool(0.7) {
				dead.Set(i)
			}
		}
		labels, _ := g.Components(dead)
		a := NodeID(rng.Intn(n))
		reach, err := g.NewScratch().Reachable(nil, a, dead)
		if err != nil {
			return false
		}
		reached := make([]bool, n)
		for _, b := range reach {
			reached[b] = true
		}
		for b := 0; b < n; b++ {
			if same := labels[a] == labels[b]; same != reached[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union should not merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", uf.Sets())
	}
	if !uf.Connected(1, 2) {
		t.Error("1 and 2 should connect through unions")
	}
	if uf.Connected(0, 4) {
		t.Error("4 should be separate")
	}
}

func TestUnionFindCompactLabels(t *testing.T) {
	uf := NewUnionFind(6)
	uf.Union(0, 2)
	uf.Union(2, 4)
	uf.Union(1, 5)
	labels, count := uf.CompactLabels()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[2] || labels[2] != labels[4] {
		t.Error("even chain labels differ")
	}
	if labels[1] != labels[5] {
		t.Error("1 and 5 labels differ")
	}
	for _, l := range labels {
		if l < 0 || l >= count {
			t.Errorf("label %d out of range", l)
		}
	}
}

func TestUnionFindTransitiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(50)
		uf := NewUnionFind(n)
		// naive labelling for cross-check
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		relabel := func(from, to int) {
			for i := range naive {
				if naive[i] == from {
					naive[i] = to
				}
			}
		}
		for k := 0; k < 60; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			uf.Union(a, b)
			relabel(naive[a], naive[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Connected(i, j) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkComponents(b *testing.B) {
	rng := xrand.New(1)
	g := New()
	const n = 10000
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	dead := NewBitset(20000)
	for i := 0; i < 20000; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		if !rng.Bool(0.8) {
			dead.Set(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components(dead)
	}
}
