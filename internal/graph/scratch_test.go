package graph

import (
	"reflect"
	"sort"
	"testing"
)

// ladder builds a small multigraph with a self-loop and a parallel edge:
//
//	0 -- 1 -- 2    3 -- 4    5 (isolated)
//	 \__/ (parallel 0-1), loop at 2
func ladder() *Graph {
	g := New()
	for i := 0; i < 6; i++ {
		g.AddNode("n")
	}
	g.AddEdge(0, 1) // e0
	g.AddEdge(0, 1) // e1 parallel
	g.AddEdge(1, 2) // e2
	g.AddEdge(2, 2) // e3 self-loop
	g.AddEdge(3, 4) // e4
	return g
}

// deadEdges returns a dead-edge set over n edges holding ids.
func deadEdges(n int, ids ...int) Bitset {
	b := NewBitset(n)
	for _, i := range ids {
		b.Set(i)
	}
	return b
}

// bfsLabels labels components by flood fill through Scratch.Reachable,
// whose BFS tests each edge with Get: an oracle for the word-walking
// union-find paths that shares no code with them.
func bfsLabels(g *Graph, dead Bitset) ([]int, int) {
	s := g.NewScratch()
	labels := make([]int, g.NumNodes())
	for i := range labels {
		labels[i] = -1
	}
	count := 0
	var buf []NodeID
	for start := range labels {
		if labels[start] >= 0 {
			continue
		}
		buf, _ = s.Reachable(buf[:0], NodeID(start), dead)
		for _, n := range buf {
			labels[n] = count
		}
		count++
	}
	return labels, count
}

func TestScratchReachableMatchesMap(t *testing.T) {
	g := ladder()
	s := g.NewScratch()
	sets := []Bitset{
		nil,
		deadEdges(5),
		deadEdges(5, 0, 1),
		deadEdges(5, 1, 2, 3, 4),
		deadEdges(5, 0, 1, 2, 3, 4),
	}
	for _, dead := range sets {
		labels, _ := g.Components(dead)
		for start := 0; start < g.NumNodes(); start++ {
			want := map[NodeID]bool{}
			for n, l := range labels {
				if l == labels[start] {
					want[NodeID(n)] = true
				}
			}
			got, err := s.Reachable(nil, NodeID(start), dead)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("dead %v start %d: %d nodes, want %d", dead, start, len(got), len(want))
			}
			for _, n := range got {
				if !want[n] {
					t.Fatalf("dead %v start %d: scratch visited %d outside the start's component", dead, start, n)
				}
			}
		}
	}
	if _, err := s.Reachable(nil, NodeID(99), nil); err == nil {
		t.Error("out-of-range start must error")
	}
}

func TestScratchReachableReusesStorage(t *testing.T) {
	g := ladder()
	s := g.NewScratch()
	buf := make([]NodeID, 0, g.NumNodes())
	allocs := testing.AllocsPerRun(100, func() {
		nodes, err := s.Reachable(buf[:0], 0, nil)
		if err != nil || len(nodes) != 3 {
			t.Fatalf("nodes=%v err=%v", nodes, err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state scratch BFS allocates %v/op, want 0", allocs)
	}
}

func TestScratchComponentsMatchesGraph(t *testing.T) {
	g := ladder()
	s := g.NewScratch()
	for _, dead := range []Bitset{nil, deadEdges(5, 1, 2), deadEdges(5, 0, 1, 2, 3, 4)} {
		labels, count := g.Components(dead)
		bfs, bfsCount := bfsLabels(g, dead)
		uf := s.ComponentsBits(dead)
		if uf.Sets() != count || count != bfsCount {
			t.Fatalf("dead %v: scratch sets %d, graph count %d, BFS count %d", dead, uf.Sets(), count, bfsCount)
		}
		for a := 0; a < g.NumNodes(); a++ {
			for b := 0; b < g.NumNodes(); b++ {
				want := bfs[a] == bfs[b]
				if (labels[a] == labels[b]) != want || uf.Connected(a, b) != want {
					t.Fatalf("dead %v: connectivity of (%d,%d) disagrees with BFS", dead, a, b)
				}
			}
		}
	}
}

func TestScratchAnyConnected(t *testing.T) {
	g := ladder()
	s := g.NewScratch()
	cases := []struct {
		dead     Bitset
		from, to []NodeID
		want     bool
	}{
		{nil, []NodeID{0}, []NodeID{2}, true},
		{nil, []NodeID{0}, []NodeID{4}, false},
		{nil, []NodeID{0, 3}, []NodeID{4}, true},
		{deadEdges(5, 0, 1, 2, 3, 4), []NodeID{0}, []NodeID{1}, false},
		{deadEdges(5, 1, 2, 3, 4), []NodeID{0}, []NodeID{1}, true},
		{nil, nil, []NodeID{1}, false},
	}
	for i, c := range cases {
		if got := s.AnyConnectedBits(c.dead, c.from, c.to); got != c.want {
			t.Errorf("case %d: AnyConnectedBits = %v, want %v", i, got, c.want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.AnyConnectedBits(nil, []NodeID{0}, []NodeID{4})
	})
	if allocs != 0 {
		t.Errorf("steady-state AnyConnectedBits allocates %v/op, want 0", allocs)
	}
}

func TestScratchStampWrap(t *testing.T) {
	g := ladder()
	s := g.NewScratch()
	s.stamp = ^uint32(0) - 1 // two increments from wrapping
	for i := 0; i < 4; i++ {
		nodes, err := s.Reachable(nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]NodeID(nil), nodes...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if !reflect.DeepEqual(got, []NodeID{0, 1, 2}) {
			t.Fatalf("iteration %d across stamp wrap: reachable = %v", i, got)
		}
	}
}

func TestUnionFindReset(t *testing.T) {
	uf := NewUnionFind(4)
	uf.Union(0, 1)
	uf.Union(2, 3)
	uf.Reset(4)
	if uf.Sets() != 4 || uf.Connected(0, 1) {
		t.Error("Reset did not restore singletons")
	}
	uf.Reset(8) // grow
	if uf.Sets() != 8 || uf.Connected(6, 7) {
		t.Error("Reset(8) did not produce 8 singletons")
	}
	uf.Union(6, 7)
	uf.Reset(2) // shrink reuses backing arrays
	if uf.Sets() != 2 || uf.Connected(0, 1) {
		t.Error("Reset(2) did not produce 2 singletons")
	}
}
