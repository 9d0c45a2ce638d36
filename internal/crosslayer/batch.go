package crosslayer

import (
	"math/bits"

	"gicnet/internal/failure"
	"gicnet/internal/graph"
)

// Batched scoring over a 64-trial bitsliced block, mirroring the
// column-major strategy of failure.EvaluateBatch. The scalar path pays a
// full union-find over every node and pair-edge per trial; the block path
// amortises that: it transposes the block's dead masks into per-cable
// trial columns, finds the pair-edges that die anywhere in the block,
// builds the block-intact component structure once, spans the touched
// subgraph with a forest, and prunes the forest to the positions a trial
// can read. Each trial's partition then falls out of one branch-free
// sweep over preorder positions instead of a fresh union-find.
//
// Equivalence: a pair-edge is dead in trial b iff the AND of its
// supporting cables' columns has bit b set, which is exactly the
// ScoreDead word-mask test for row b. Edges untouched in the whole block
// are alive in every trial and fold into the block-intact structure; per
// trial the touched edges are re-added when alive — tree edges by
// inheritance in the sweep, cycle-closing extras by a small union over
// component ids. Pruning removes only forest parts no site's component
// depends on: a subtree with no AS, extra endpoint or anchor hangs from
// the rest by one edge, and a spliced AS-free position only relays its
// one child, whose edge then dies when either edge does. The site
// partition is therefore identical to the scalar path's for every trial.
// The integer fields are sums over that partition, so their order is
// free; the float fields add the anchor component's sites in ascending
// node order, the exact sequence scoreFromRoots adds them in, and both
// paths finish through finishScore — so every Score is bit-identical.

// ScoreBatch scores the first n rows of a sampled trial block into
// out[:n], producing exactly ScoreDead(batch.Row(b), s) for each b. The
// batch must have been grown for the plan of the same network the index
// was compiled for, and s for this index.
//
//gicnet:hotpath
func (x *Index) ScoreBatch(batch *failure.BatchScratch, n int, out []Score, s *Scratch) {
	if n <= 0 {
		return
	}
	nt := x.touchEdges(batch, n, s)
	labels, nt, never := x.labelBlock(s, nt, n)
	ne := s.spanForest(labels, nt)
	deadMask := never | x.buildSweep(s, labels, ne)
	// Trials killing no edge of the sweep keep the intact partition, whose
	// canonical accumulation is the intact score bit for bit (the same
	// property the empty-mask fuzz case pins).
	for b := 0; b < n; b++ {
		if deadMask>>uint(b)&1 == 0 {
			out[b] = x.intact
			continue
		}
		out[b] = x.scoreTrial(s, uint(b))
	}
}

// touchEdges transposes the block into per-cable trial columns and lists
// the touched pair-edges: those with at least one supporting cable dead
// somewhere in the block and a nonzero dead column (the AND over their
// supporting cables' columns; bit b set means the edge is severed in
// trial b). It returns the touched count.
//
//gicnet:hotpath
func (x *Index) touchEdges(batch *failure.BatchScratch, n int, s *Scratch) int {
	var tmp [64]uint64
	for wi := 0; wi < x.words; wi++ {
		for b := 0; b < n; b++ {
			tmp[b] = batch.Row(b)[wi]
		}
		for b := n; b < failure.MaxBatch; b++ {
			tmp[b] = 0 // absent trials kill no cables
		}
		graph.Transpose64(&tmp)
		copy(s.cols[wi<<6:(wi+1)<<6], tmp[:])
	}
	eg := s.nextEdgeGen()
	nt := 0
	numCables := len(x.cableEdgeStart) - 1
	for c := 0; c < numCables; c++ {
		if s.cols[c] == 0 {
			continue
		}
		for k := x.cableEdgeStart[c]; k < x.cableEdgeStart[c+1]; k++ {
			e := x.cableEdges[k]
			if s.edgeSeen[e] == eg {
				continue
			}
			s.edgeSeen[e] = eg
			col := ^uint64(0)
			for q := x.cableStart[e]; q < x.cableStart[e+1] && col != 0; q++ {
				col &= s.cols[x.cableList[q]]
			}
			if col != 0 {
				s.edgeDead[e] = eg
				s.touched[nt] = e
				s.touchedCol[nt] = col
				nt++
			}
		}
	}
	return nt
}

// labelBlock folds every edge alive throughout the block into block-intact
// components and compacts the roots that matter (sites, the anchor,
// touched edge endpoints) to dense labels. It drops two kinds of touched
// edge: one whose endpoints share a label is parallel to an always-alive
// connection, so its death can never split the partition; one dead in all
// n trials never joins anything in the block, and its column comes back
// in never, the trials it keeps from the intact partition. It returns the
// label count and the count of touched edges kept, in s.touchedA/B/Col.
//
//gicnet:hotpath
func (x *Index) labelBlock(s *Scratch, nt, n int) (labels, kept int, never uint64) {
	eg := s.edgeCtr
	s.uf.Reset(x.numNodes)
	for e := 0; e < len(x.edgeA); e++ {
		if s.edgeDead[e] != eg {
			s.uf.Union(int(x.edgeA[e]), int(x.edgeB[e]))
		}
	}
	ng := s.nextNodeGen()
	s.nLabels = 0
	for si := 0; si < len(x.sites); si++ {
		s.siteLabel[si] = s.labelOf(x.sites[si], ng)
	}
	s.anchorLabel = s.labelOf(x.anchor, ng)
	all := ^uint64(0) >> uint(failure.MaxBatch-n)
	for ti := 0; ti < nt; ti++ {
		e := s.touched[ti]
		a := s.labelOf(x.edgeA[e], ng)
		bl := s.labelOf(x.edgeB[e], ng)
		col := s.touchedCol[ti]
		if a == bl {
			continue
		}
		if col == all {
			never |= col
			continue
		}
		s.touchedA[kept] = a
		s.touchedB[kept] = bl
		s.touchedCol[kept] = col
		kept++
	}
	return int(s.nLabels), kept, never
}

// spanForest spans the all-alive touched graph over the compact labels
// with a forest. The pair-edge graph is almost a tree (nearly every edge
// is a bridge), so per trial the partition is "cut the forest at this
// trial's dead tree edges"; the few cycle-closing extras, listed in
// s.extra, are patched back per trial. Edges join the forest in order of
// how few trials kill them, so the extras are the edges dead most often
// and a trial's alive extras, each a possible merge, stay few. A stack
// DFS then gives each label its forest parent and parent edge, and
// s.order lists the labels in preorder (parents before children). It
// returns the extras count.
//
//gicnet:hotpath
func (s *Scratch) spanForest(labels, nt int) int {
	var start [failure.MaxBatch + 1]int32
	for ti := 0; ti < nt; ti++ {
		start[bits.OnesCount64(s.touchedCol[ti])]++
	}
	off := int32(0)
	for k, c := range start {
		start[k] = off
		off += c
	}
	for ti := 0; ti < nt; ti++ {
		k := bits.OnesCount64(s.touchedCol[ti])
		s.byDeaths[start[k]] = int32(ti)
		start[k]++
	}
	s.uf.Reset(labels)
	ne := 0
	for _, ti := range s.byDeaths[:nt] {
		if s.uf.Union(int(s.touchedA[ti]), int(s.touchedB[ti])) {
			s.treeFlag[ti] = true
		} else {
			s.treeFlag[ti] = false
			s.extra[ne] = ti
			ne++
		}
	}
	// Adjacency CSR over tree edges.
	for l := 0; l <= labels; l++ {
		s.adjStart[l] = 0
	}
	for ti := 0; ti < nt; ti++ {
		if s.treeFlag[ti] {
			s.adjStart[s.touchedA[ti]]++
			s.adjStart[s.touchedB[ti]]++
		}
	}
	sum := int32(0)
	for l := 0; l < labels; l++ {
		deg := s.adjStart[l]
		s.adjStart[l] = sum
		sum += deg
	}
	s.adjStart[labels] = sum
	for ti := 0; ti < nt; ti++ {
		if s.treeFlag[ti] {
			a, bl := s.touchedA[ti], s.touchedB[ti]
			s.adjList[s.adjStart[a]] = bl
			s.adjEdge[s.adjStart[a]] = int32(ti)
			s.adjStart[a]++
			s.adjList[s.adjStart[bl]] = a
			s.adjEdge[s.adjStart[bl]] = int32(ti)
			s.adjStart[bl]++
		}
	}
	for l := labels; l > 0; l-- {
		s.adjStart[l] = s.adjStart[l-1]
	}
	s.adjStart[0] = 0
	for l := 0; l < labels; l++ {
		s.parentEdge[l] = -2 // unvisited
	}
	np := 0
	for r := 0; r < labels; r++ {
		if s.parentEdge[r] != -2 {
			continue
		}
		s.parentEdge[r] = -1 // forest root
		s.parentLab[r] = -1
		top := 0
		s.stack[top] = int32(r)
		top++
		for top > 0 {
			top--
			v := s.stack[top]
			s.order[np] = v
			np++
			for k := s.adjStart[v]; k < s.adjStart[v+1]; k++ {
				w := s.adjList[k]
				if s.parentEdge[w] != -2 {
					continue
				}
				s.parentEdge[w] = s.adjEdge[k]
				s.parentLab[w] = v
				s.stack[top] = w
				top++
			}
		}
	}
	return ne
}

// buildSweep prunes the forest to what a trial can read and lays the rest
// out by preorder position, in flat arrays the per-trial sweep reads in
// order. A label is pinned when it carries ASes, is the anchor's, or ends
// a cycle-closing extra. A subtree with no pinned label is dropped with
// its edge; an unpinned label with one remaining child is spliced out,
// its dead column OR'd into the child's. Every kept position stores its
// parent's position and its parent edge's dead column (all ones at a
// root); the AS-carrying positions, the site positions and the extras as
// position pairs are listed alongside. It returns the trials in which
// some kept edge or extra dies: every other trial keeps the intact
// partition.
//
//gicnet:hotpath
func (x *Index) buildSweep(s *Scratch, labels, ne int) uint64 {
	for l := 0; l < labels; l++ {
		s.labelAS[l] = 0
		s.pinned[l] = false
		s.kids[l] = 0
	}
	for si := 0; si < len(x.sites); si++ {
		l := s.siteLabel[si]
		s.labelAS[l] += x.siteCount[si]
		s.pinned[l] = true
	}
	s.pinned[s.anchorLabel] = true
	for k := 0; k < ne; k++ {
		ti := s.extra[k]
		s.pinned[s.touchedA[ti]] = true
		s.pinned[s.touchedB[ti]] = true
	}
	// Children first: count each label's children that lead to a pin.
	for i := labels - 1; i >= 0; i-- {
		l := s.order[i]
		if p := s.parentLab[l]; p >= 0 && (s.pinned[l] || s.kids[l] > 0) {
			s.kids[p]++
		}
	}
	// Parents first: lay out kept labels, carrying spliced columns down.
	// s.up[l] is the position a child of l hangs under (-1: none, the
	// child is a root) and s.acc[l] the dead column of the spliced path
	// from l up to it.
	dead := uint64(0)
	np := int32(0)
	na := 0
	s.asPairs = 0
	for i := 0; i < labels; i++ {
		l := s.order[i]
		if !s.pinned[l] && s.kids[l] == 0 {
			continue // nothing a trial reads lies below: drop it
		}
		up, col := int32(-1), ^uint64(0)
		if p := s.parentLab[l]; p >= 0 && s.up[p] >= 0 {
			up, col = s.up[p], s.touchedCol[s.parentEdge[l]]|s.acc[p]
		}
		if !s.pinned[l] && s.kids[l] == 1 {
			s.up[l], s.acc[l] = up, col // a relay: splice it out
			continue
		}
		if up >= 0 {
			dead |= col
		} else {
			up = np // a root reads its own id, always masked out
		}
		s.par[np], s.pcol[np] = up, col
		s.pos[l] = np
		s.up[l], s.acc[l] = np, 0
		if c := s.labelAS[l]; c > 0 {
			s.asPos[na], s.asCnt[na] = np, c
			s.asPairs += c * (c - 1) / 2
			na++
		}
		np++
	}
	for k := 0; k < ne; k++ {
		ti := s.extra[k]
		s.extraA[k] = s.pos[s.touchedA[ti]]
		s.extraB[k] = s.pos[s.touchedB[ti]]
		s.extraCol[k] = s.touchedCol[ti]
		dead |= s.touchedCol[ti]
	}
	for si := 0; si < len(x.sites); si++ {
		s.sitePos[si] = s.pos[s.siteLabel[si]]
	}
	s.anchorPos = s.pos[s.anchorLabel]
	s.nPos, s.nAS, s.nExtra = int(np), na, ne
	return dead
}

// scoreTrial scores trial b of the block laid out by buildSweep. One
// top-down pass gives each position a dense component id by a select: a
// dead parent edge starts a new id, an alive one inherits the parent's.
// ASes are counted per id, and alive extras then merge ids through s.rep,
// touching only the ids that merge and folding their counts and cross
// pairs together. The integer fields are sums over ids; the float fields
// come from one pass over the sites in ascending node order.
//
//gicnet:hotpath
func (x *Index) scoreTrial(s *Scratch, b uint) Score {
	np := s.nPos
	par, pcol, id := s.par[:np], s.pcol[:np], s.id[:np]
	next := int32(0)
	for i := range pcol {
		d := int32(pcol[i]>>b) & 1
		m := -d
		id[i] = next&m | id[par[i]]&^m
		next += d
	}

	cnt := s.cnt[:next]
	for i := range cnt {
		cnt[i] = 0
	}
	pairs := s.asPairs
	asCnt := s.asCnt[:s.nAS]
	for j, p := range s.asPos[:s.nAS] {
		c, r := asCnt[j], id[p]
		pairs += c * cnt[r]
		cnt[r] += c
	}

	nm := 0
	for k := 0; k < s.nExtra; k++ {
		if s.extraCol[k]>>b&1 != 0 {
			continue
		}
		ra, rb := s.findID(id[s.extraA[k]]), s.findID(id[s.extraB[k]])
		if ra == rb {
			continue
		}
		pairs += cnt[ra] * cnt[rb]
		cnt[rb] += cnt[ra]
		s.rep[ra] = rb
		s.merged[nm] = ra
		nm++
	}
	anchor := s.findID(id[s.anchorPos])
	merged := s.merged[:nm]
	for _, c := range merged {
		s.rep[c] = s.findID(c)
	}

	// A site is in the anchor's component when its id is the anchor's or
	// was merged into it. The accumulators live in registers, one per
	// region (the array assertions below pin NumRegions to their count);
	// each adds its region's masses in site order, as scoreFromRoots does.
	var users, r0, r1, r2, r3, r4, r5, r6 float64
	for si, p := range s.sitePos {
		if q := id[p]; q != anchor && s.rep[q] != anchor {
			continue
		}
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
	for _, c := range merged {
		s.rep[c] = c // back to the identity for the next trial
	}
	region := [NumRegions]float64{r0, r1, r2, r3, r4, r5, r6}
	return x.finishScore(pairs, cnt[anchor], users, &region)
}

var (
	_ [NumRegions - 7]struct{}
	_ [7 - NumRegions]struct{}
)

// findID follows s.rep from a component id to its representative,
// halving the path as it goes. Only ids already merged away have a rep
// other than themselves, so halving rewrites only ids on s.merged.
//
//gicnet:hotpath
func (s *Scratch) findID(c int32) int32 {
	for s.rep[c] != c {
		s.rep[c] = s.rep[s.rep[c]]
		c = s.rep[c]
	}
	return c
}

// labelOf compacts a node's block-intact component root to a dense label,
// first-seen order under the current generation stamp.
//
//gicnet:hotpath
func (s *Scratch) labelOf(node int32, gen uint32) int32 {
	r := s.uf.Find(int(node))
	if s.nodeGen[r] != gen {
		s.nodeGen[r] = gen
		s.nodeLabel[r] = s.nLabels
		s.nLabels++
	}
	return s.nodeLabel[r]
}

// nextEdgeGen advances the shared edge stamp, clearing on wraparound.
//
//gicnet:hotpath
func (s *Scratch) nextEdgeGen() uint32 {
	s.edgeCtr++
	if s.edgeCtr == 0 {
		for i := range s.edgeSeen {
			s.edgeSeen[i] = 0
		}
		for i := range s.edgeDead {
			s.edgeDead[i] = 0
		}
		s.edgeCtr = 1
	}
	return s.edgeCtr
}

// nextNodeGen advances the label stamp, clearing on wraparound.
//
//gicnet:hotpath
func (s *Scratch) nextNodeGen() uint32 {
	s.nodeCtr++
	if s.nodeCtr == 0 {
		for i := range s.nodeGen {
			s.nodeGen[i] = 0
		}
		s.nodeCtr = 1
	}
	return s.nodeCtr
}
