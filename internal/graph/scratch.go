package graph

import (
	"fmt"
	"math/bits"
)

// Scratch is reusable per-worker state for repeated dead-set queries over one
// graph. The Monte Carlo engine runs thousands of trials against the same
// topology; with a Scratch per worker those queries allocate nothing in
// steady state.
//
// A Scratch is bound to the graph that created it and is not safe for
// concurrent use; give each goroutine its own.
type Scratch struct {
	g  *Graph
	uf *UnionFind

	// Stamp-based visited marks: seen[n] == stamp means visited in the
	// current query, so resetting between queries is a single increment.
	seen  []uint32
	stamp uint32
	queue []NodeID

	// cuts is the reused dead-forest-edge buffer of the contraction query
	// path (see forestCuts); it grows to the per-trial cut high-water mark
	// and then stops allocating.
	cuts []int32

	// trial is the CoreTrial that Trial hands out, so beginning a trial
	// allocates nothing.
	trial CoreTrial
}

// NewScratch returns scratch state sized for g.
func (g *Graph) NewScratch() *Scratch {
	return &Scratch{
		g:     g,
		uf:    NewUnionFind(g.NumNodes()),
		seen:  make([]uint32, g.NumNodes()),
		queue: make([]NodeID, 0, g.NumNodes()),
	}
}

//gicnet:hotpath
func (s *Scratch) nextStamp() uint32 {
	s.stamp++
	if s.stamp == 0 { // wrapped: clear marks and restart
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.stamp = 1
	}
	return s.stamp
}

// Reachable appends the nodes reachable from start via alive edges
// (including start) to dst and returns it, BFS order. Edge e is alive iff
// bit e of deadEdges is zero; a nil set means every edge is alive. Visited
// state is a stamp array and the queue is a reused slice, so steady-state
// calls allocate nothing when dst has capacity.
func (s *Scratch) Reachable(dst []NodeID, start NodeID, deadEdges Bitset) ([]NodeID, error) {
	if !s.g.validNode(start) {
		return dst, fmt.Errorf("%w: %d", ErrBadNode, start)
	}
	stamp := s.nextStamp()
	s.seen[start] = stamp
	s.queue = append(s.queue[:0], start)
	for head := 0; head < len(s.queue); head++ {
		n := s.queue[head]
		for _, e := range s.g.adj[n] {
			if deadEdges != nil && deadEdges.Get(int(e)) {
				continue
			}
			o := s.g.Other(e, n)
			if s.seen[o] != stamp {
				s.seen[o] = stamp
				s.queue = append(s.queue, o)
			}
		}
	}
	return append(dst, s.queue...), nil
}

// ComponentsBits unions the alive edges into the scratch union-find and
// returns it for Find/Connected queries: edge e is alive iff bit e of
// deadEdges is zero, and a nil bitset means every edge is alive. deadEdges
// must span every edge ID (BitsetWords(NumEdges()) words). The result is
// valid until the next Scratch call; unlike Graph.Components it builds no
// label slice.
//
//gicnet:hotpath
func (s *Scratch) ComponentsBits(deadEdges Bitset) *UnionFind {
	s.uf.Reset(s.g.NumNodes())
	s.g.unionAlive(s.uf, deadEdges)
	return s.uf
}

// unionAlive unions the endpoints of every edge outside deadEdges, in
// ascending edge order, into uf.
//
//gicnet:hotpath
func (g *Graph) unionAlive(uf *UnionFind, deadEdges Bitset) {
	edges := g.edges
	if deadEdges == nil {
		for i := range edges {
			uf.Union(int(edges[i].A), int(edges[i].B))
		}
		return
	}
	// Invert word by word and walk the alive bits, skipping dead edges
	// without a per-edge branch.
	for wi, w := range deadEdges {
		base := wi << 6
		alive := ^w
		if rest := len(edges) - base; rest < 64 {
			alive &= 1<<uint(rest) - 1
		}
		for alive != 0 {
			e := &edges[base+bits.TrailingZeros64(alive)]
			alive &= alive - 1
			uf.Union(int(e.A), int(e.B))
		}
	}
}

// AnyConnectedBits reports whether any node of from shares a component
// with any node of to with the edges of deadEdges removed, using the
// scratch union-find and stamp marks: the zero-allocation form of the
// Components+label-intersection pattern.
//
//gicnet:hotpath
func (s *Scratch) AnyConnectedBits(deadEdges Bitset, from, to []NodeID) bool {
	return s.anyConnected(s.ComponentsBits(deadEdges), from, to)
}

//gicnet:hotpath
func (s *Scratch) anyConnected(uf *UnionFind, from, to []NodeID) bool {
	stamp := s.nextStamp()
	for _, n := range from {
		s.seen[uf.Find(int(n))] = stamp
	}
	for _, n := range to {
		if s.seen[uf.Find(int(n))] == stamp {
			return true
		}
	}
	return false
}
