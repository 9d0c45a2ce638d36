package graph

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestScratchEdgeCases table-drives the scratch machinery over the shapes
// the Monte Carlo engine never exercises but refactors keep breaking:
// empty graphs, single nodes, self-loops, and dead-everything sets.
func TestScratchEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
		dead  func(g *Graph) Bitset // nil = all alive
		// wantComponents counts components; wantReach maps a start node
		// to its expected reachable-set size (-1 = expect an error).
		wantComponents int
		reachStart     NodeID
		wantReach      int
	}{
		{
			name:           "empty graph",
			build:          func() *Graph { return New() },
			wantComponents: 0,
			reachStart:     0,
			wantReach:      -1, // no node 0 to start from
		},
		{
			name: "single node no edges",
			build: func() *Graph {
				g := New()
				g.AddNode("only")
				return g
			},
			wantComponents: 1,
			reachStart:     0,
			wantReach:      1,
		},
		{
			name: "single node self-loop",
			build: func() *Graph {
				g := New()
				n := g.AddNode("loop")
				g.AddEdge(n, n)
				return g
			},
			wantComponents: 1,
			reachStart:     0,
			wantReach:      1,
		},
		{
			name: "two nodes all edges dead",
			build: func() *Graph {
				g := New()
				a, b := g.AddNode("a"), g.AddNode("b")
				g.AddEdge(a, b)
				return g
			},
			dead: func(g *Graph) Bitset {
				d := NewBitset(g.NumEdges())
				d.SetRange(0, g.NumEdges())
				return d
			},
			wantComponents: 2,
			reachStart:     0,
			wantReach:      1,
		},
		{
			name: "parallel edges one alive",
			build: func() *Graph {
				g := New()
				a, b := g.AddNode("a"), g.AddNode("b")
				g.AddEdge(a, b)
				g.AddEdge(a, b)
				return g
			},
			dead: func(g *Graph) Bitset {
				d := NewBitset(g.NumEdges())
				d.Set(0)
				return d
			},
			wantComponents: 1,
			reachStart:     0,
			wantReach:      2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.build()
			s := g.NewScratch()
			var dead Bitset
			if c.dead != nil {
				dead = c.dead(g)
			}
			// Run every query twice: scratch reuse must not change answers.
			for pass := 0; pass < 2; pass++ {
				uf := s.ComponentsBits(dead)
				if got := uf.Sets(); got != c.wantComponents {
					t.Fatalf("pass %d: components = %d, want %d", pass, got, c.wantComponents)
				}
				nodes, err := s.Reachable(nil, c.reachStart, dead)
				if c.wantReach < 0 {
					if !errors.Is(err, ErrBadNode) {
						t.Fatalf("pass %d: Reachable err = %v, want ErrBadNode", pass, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("pass %d: Reachable: %v", pass, err)
				}
				if len(nodes) != c.wantReach {
					t.Fatalf("pass %d: reachable = %v, want %d nodes", pass, nodes, c.wantReach)
				}
			}
		})
	}
}

// TestScratchStampWrapAdversarial forces the uint32 visit stamp to wrap
// around with every seen-mark pre-set to the current stamp — the freshest
// stale state a real query sequence can leave behind. A wrap that failed
// to clear marks would let those entries collide with a post-wrap stamp
// and silently truncate BFS results. (The plain wrap case lives in
// scratch_test.go.)
func TestScratchStampWrapAdversarial(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b)
	s := g.NewScratch()

	// Jump the counter to the wrap point and mark every node as visited
	// at that exact stamp, as a just-finished query would have.
	s.stamp = math.MaxUint32 - 1
	for i := range s.seen {
		s.seen[i] = math.MaxUint32 - 1
	}
	for round := 0; round < 3; round++ { // crosses MaxUint32 -> 0 -> 1
		nodes, err := s.Reachable(nil, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != 2 {
			t.Fatalf("round %d (stamp %d): reachable = %v, want both nodes", round, s.stamp, nodes)
		}
	}
}

// TestScratchAcrossDifferentlySizedGraphs pins the ownership rule: a
// scratch is bound to the graph that made it, and scratches for graphs of
// different sizes must not poison each other through shared state or
// stale dst slices.
func TestScratchAcrossDifferentlySizedGraphs(t *testing.T) {
	big := New()
	for i := 0; i < 64; i++ {
		big.AddNode(fmt.Sprintf("b%d", i))
	}
	for i := 1; i < 64; i++ {
		big.AddEdge(NodeID(i-1), NodeID(i)) // one long chain
	}
	small := New()
	x, y := small.AddNode("x"), small.AddNode("y")
	small.AddEdge(x, y)

	sb, ss := big.NewScratch(), small.NewScratch()

	// Interleave queries; reuse one dst slice across both graphs so stale
	// contents from the big result would surface in the small one.
	var dst []NodeID
	for round := 0; round < 3; round++ {
		var err error
		dst, err = sb.Reachable(dst[:0], 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dst) != 64 {
			t.Fatalf("round %d: big reach = %d, want 64", round, len(dst))
		}
		dst, err = ss.Reachable(dst[:0], x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dst) != 2 {
			t.Fatalf("round %d: small reach = %v, want 2 nodes", round, dst)
		}
		for _, n := range dst {
			if int(n) >= small.NumNodes() {
				t.Fatalf("round %d: small result contains foreign node %d", round, n)
			}
		}
		// Component queries on both scratches stay independent too.
		if got := ss.ComponentsBits(nil).Sets(); got != 1 {
			t.Fatalf("round %d: small components = %d, want 1", round, got)
		}
		if got := sb.ComponentsBits(nil).Sets(); got != 1 {
			t.Fatalf("round %d: big components = %d, want 1", round, got)
		}
	}

	// The graph-level query on the bigger graph agrees after the scratch
	// queries.
	if _, got := big.Components(nil); got != 1 {
		t.Fatalf("Components(nil) count = %d, want 1", got)
	}
}
