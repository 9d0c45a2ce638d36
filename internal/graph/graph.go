// Package graph provides the undirected-multigraph substrate behind every
// connectivity analysis in this repository: node/edge bookkeeping, union-find
// connected components, BFS reachability, and articulation-point detection.
//
// The failure analyses repeatedly ask "with these edges dead, which nodes
// are unreachable / which components remain?", so the central primitives are
// component queries over a packed dead-edge Bitset rather than mutation of
// the graph itself.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node; IDs are dense indices assigned by AddNode.
type NodeID int

// EdgeID identifies an edge; IDs are dense indices assigned by AddEdge.
type EdgeID int

// Edge is an undirected connection between two nodes.
type Edge struct {
	ID   EdgeID
	A, B NodeID
}

// Graph is an undirected multigraph with dense node and edge IDs. Parallel
// edges and self-loops are allowed (some cables land twice in one city).
// The zero value is an empty graph ready to use.
type Graph struct {
	nodeLabels []string
	edges      []Edge
	adj        [][]EdgeID // node -> incident edge IDs
}

// ErrBadNode reports a node ID outside the graph.
var ErrBadNode = errors.New("graph: node out of range")

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode adds a labelled node and returns its ID.
func (g *Graph) AddNode(label string) NodeID {
	id := NodeID(len(g.nodeLabels))
	g.nodeLabels = append(g.nodeLabels, label)
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge connects a and b and returns the new edge's ID.
// It panics if either endpoint does not exist, since topology builders
// control both sides and a dangling endpoint is a programming error.
func (g *Graph) AddEdge(a, b NodeID) EdgeID {
	if !g.validNode(a) || !g.validNode(b) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with %d nodes", a, b, len(g.nodeLabels)))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, A: a, B: b})
	g.adj[a] = append(g.adj[a], id)
	if a != b {
		g.adj[b] = append(g.adj[b], id)
	}
	return id
}

// NumNodes returns the node count.
//
//gicnet:hotpath
func (g *Graph) NumNodes() int { return len(g.nodeLabels) }

// NumEdges returns the edge count.
//
//gicnet:hotpath
func (g *Graph) NumEdges() int { return len(g.edges) }

// Label returns the label of node n.
func (g *Graph) Label(n NodeID) (string, error) {
	if !g.validNode(n) {
		return "", fmt.Errorf("%w: %d", ErrBadNode, n)
	}
	return g.nodeLabels[n], nil
}

// EdgeAt returns edge e.
func (g *Graph) EdgeAt(e EdgeID) Edge { return g.edges[e] }

// Incident returns the IDs of edges incident to n. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Incident(n NodeID) []EdgeID { return g.adj[n] }

// Degree returns the number of edge endpoints at n (self-loops count once).
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// Other returns the endpoint of e opposite n.
func (g *Graph) Other(e EdgeID, n NodeID) NodeID {
	ed := g.edges[e]
	if ed.A == n {
		return ed.B
	}
	return ed.A
}

func (g *Graph) validNode(n NodeID) bool {
	return n >= 0 && int(n) < len(g.nodeLabels)
}

// Components labels every node with a component index with the edges of
// deadEdges removed and returns (labels, count). Edge e is alive iff bit e
// of deadEdges is zero; a nil set means every edge is alive, and any other
// set must span every edge ID (BitsetWords(NumEdges()) words). Nodes with
// no alive edges form singleton components.
func (g *Graph) Components(deadEdges Bitset) ([]int, int) {
	uf := NewUnionFind(len(g.nodeLabels))
	g.unionAlive(uf, deadEdges)
	return uf.CompactLabels()
}

// ArticulationPoints returns the cut vertices of the graph (considering all
// edges alive), sorted by ID. Used by the topology-design extension to find
// single points of failure such as regional hub cities.
func (g *Graph) ArticulationPoints() []NodeID {
	n := len(g.nodeLabels)
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	isAP := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	timer := 0

	// Iterative Tarjan to avoid recursion depth limits on the 11k-node
	// ITU-scale graphs.
	type frame struct {
		node        NodeID
		edgeIdx     int
		parentEdges int
	}
	for start := 0; start < n; start++ {
		if disc[start] != 0 {
			continue
		}
		stack := []frame{{node: NodeID(start)}}
		timer++
		disc[start], low[start] = timer, timer
		rootChildren := 0
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			if f.edgeIdx < len(g.adj[u]) {
				e := g.adj[u][f.edgeIdx]
				f.edgeIdx++
				v := g.Other(e, u)
				if v == u { // self-loop
					continue
				}
				if disc[v] == 0 {
					parent[v] = int(u)
					if int(u) == start {
						rootChildren++
					}
					timer++
					disc[v], low[v] = timer, timer
					stack = append(stack, frame{node: v})
				} else if int(v) != parent[u] {
					if disc[v] < low[u] {
						low[u] = disc[v]
					}
				} else {
					// Multi-edge back to parent counts as a cycle:
					// only skip the first parallel edge.
					f.parentEdges++
					if f.parentEdges > 1 && disc[v] < low[u] {
						low[u] = disc[v]
					}
				}
			} else {
				stack = stack[:len(stack)-1]
				if p := parent[u]; p != -1 {
					if low[u] < low[p] {
						low[p] = low[u]
					}
					if p != start && low[u] >= disc[p] {
						isAP[p] = true
					}
				}
			}
		}
		if rootChildren > 1 {
			isAP[start] = true
		}
	}
	var out []NodeID
	for i, ap := range isAP {
		if ap {
			out = append(out, NodeID(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
