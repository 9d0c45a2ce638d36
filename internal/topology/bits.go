package topology

import (
	"math/bits"

	"gicnet/internal/graph"
)

// IncidenceBits is the bit-packed node↔cable incidence the Monte Carlo
// kernel evaluates trials against. It depends only on network topology —
// never on the failure model or repeater spacing — so it is built once per
// network and shared by every compiled plan.
//
// The key query is "are all cables incident to node i dead?" against a
// packed dead-cable Bitset: node i's incident cables are covered by the
// (word, mask) pairs WordIdx/WordMask[NodeStart[i]:NodeStart[i+1]], and the
// node is unreachable iff dead[WordIdx[k]] & WordMask[k] == WordMask[k] for
// every pair k. Real nodes touch a handful of cables, so this is one or two
// word ANDs instead of an index-chasing loop.
type IncidenceBits struct {
	// Words is the word length of a cable Bitset for this network.
	Words int

	// Node → covering (word, mask) pairs over its incident cables.
	NodeStart []int32
	WordIdx   []int32
	WordMask  []uint64

	// Cable → distinct endpoint nodes (the reverse incidence CSR): cable
	// ci touches CableNodes[CableStart[ci]:CableStart[ci+1]].
	CableStart []int32
	CableNodes []int32

	// MinCable[i] is node i's lowest incident cable index, or -1 for nodes
	// with no cables. A fully-dead node is counted exactly once by visiting
	// it from its lowest dead incident cable.
	MinCable []int32

	// Node → distinct incident cables (ascending), the unpacked companion
	// of the (word, mask) pairs above: node i touches
	// NodeCables[NodeCableStart[i]:NodeCableStart[i+1]]. The block
	// evaluator walks cables by index to gather per-cable trial columns,
	// which the word-packed view cannot express.
	NodeCableStart []int32
	NodeCables     []int32
}

// IncidenceBits returns the bit-packed incidence view, built once and
// cached. The returned struct is shared and must not be modified.
func (n *Network) IncidenceBits() *IncidenceBits {
	n.bitsOnce.Do(n.buildIncidenceBits)
	return n.incBits
}

func (n *Network) buildIncidenceBits() {
	start, list := n.CableIncidence()
	nn := len(n.Nodes)
	ib := &IncidenceBits{
		Words:     graph.BitsetWords(len(n.Cables)),
		NodeStart: make([]int32, nn+1),
		MinCable:  make([]int32, nn),
		// The node→cable CSR is cached on the network and immutable, so the
		// incidence view can alias it directly.
		NodeCableStart: start,
		NodeCables:     list,
	}

	// Node → (word, mask) pairs. Each node's cable list is ascending (see
	// buildIncidence), so cables sharing a word are adjacent and the pair
	// count is the number of distinct words per node.
	total := int32(0)
	for i := 0; i < nn; i++ {
		ib.MinCable[i] = -1
		prev := int32(-1)
		for _, ci := range list[start[i]:start[i+1]] {
			if ib.MinCable[i] < 0 {
				ib.MinCable[i] = ci
			}
			if w := ci >> 6; w != prev {
				prev = w
				total++
			}
		}
		ib.NodeStart[i+1] = total
	}
	ib.WordIdx = make([]int32, total)
	ib.WordMask = make([]uint64, total)
	pos := 0
	for i := 0; i < nn; i++ {
		prev := int32(-1)
		for _, ci := range list[start[i]:start[i+1]] {
			if w := ci >> 6; w != prev {
				prev = w
				ib.WordIdx[pos] = w
				pos++
			}
			ib.WordMask[pos-1] |= 1 << (uint(ci) & 63)
		}
	}

	// Cable → distinct endpoint nodes, deduped with the same last-cable
	// trick as buildIncidence.
	nc := len(n.Cables)
	last := make([]int, nn)
	counts := make([]int32, nc+1)
	for pass := 0; pass < 2; pass++ {
		for i := range last {
			last[i] = -1
		}
		for ci, c := range n.Cables {
			for _, s := range c.Segments {
				for _, ni := range [2]int{s.A, s.B} {
					if last[ni] == ci {
						continue
					}
					last[ni] = ci
					if pass == 0 {
						counts[ci+1]++
					} else {
						ib.CableNodes[counts[ci]] = int32(ni)
						counts[ci]++
					}
				}
			}
		}
		if pass == 0 {
			for c := 1; c <= nc; c++ {
				counts[c] += counts[c-1]
			}
			ib.CableStart = append([]int32(nil), counts...)
			ib.CableNodes = make([]int32, counts[nc])
		}
	}
	n.incBits = ib
}

// CoreContraction contracts the network's graph against an at-risk cable
// set: every edge of a cable outside the set is immortal core, fused into
// supernodes once, and per-trial connectivity unions only the surviving
// at-risk edges over the contracted graph — with the dead CABLE bitset as
// the mask, so the per-trial cable→edge projection disappears entirely.
// The cable index is the failure class (each cable owns a contiguous edge
// block in the graph projection). The result is immutable and safe for
// concurrent use; failure.Plan caches one per compiled at-risk set.
func (n *Network) CoreContraction(atRiskCables graph.Bitset) *graph.CoreContraction {
	g := n.Graph()
	n.classOnce.Do(func() {
		n.edgeClasses = make([]int32, len(n.edgeCable))
		for e, ci := range n.edgeCable {
			n.edgeClasses[e] = int32(ci)
		}
	})
	n.contractMu.Lock()
	defer n.contractMu.Unlock()
	for i, cc := range n.contractions {
		if cc.Matches(g, atRiskCables) {
			n.contractHits++
			// LRU: move the hit to the back (most recently used), so a
			// steady working set survives one-off at-risk sets passing
			// through.
			copy(n.contractions[i:], n.contractions[i+1:])
			n.contractions[len(n.contractions)-1] = cc
			return cc
		}
	}
	n.contractMisses++
	cc := graph.NewCoreContraction(g, n.edgeClasses, len(n.Cables), atRiskCables)
	// LRU-bound the cache: distinct at-risk sets are model families, of
	// which a process sees a handful, but a pathological caller sweeping
	// per-cable immortality must not accumulate one contraction per sweep
	// point. The least recently used entry (front) is evicted.
	if len(n.contractions) >= contractionCacheCap {
		copy(n.contractions, n.contractions[1:])
		n.contractions = n.contractions[:len(n.contractions)-1]
	}
	n.contractions = append(n.contractions, cc)
	return cc
}

// contractionCacheCap bounds the per-network contraction LRU. A process
// sees one at-risk set per model family, so 8 covers every workload the
// repo ships while still bounding adversarial sweeps.
const contractionCacheCap = 8

// ContractionCacheStats returns the lifetime hit/miss counters of the
// network's contraction LRU. A hit is a CoreContraction call answered from
// the cache; a miss paid a full contraction build. The serving layer
// reports these per shard so cache effectiveness is observable in
// production.
func (n *Network) ContractionCacheStats() (hits, misses uint64) {
	n.contractMu.Lock()
	defer n.contractMu.Unlock()
	return n.contractHits, n.contractMisses
}

// DeadEdgeBitsInto projects a dead-cable set onto graph edges: every
// segment edge of a dead cable is marked dead. It is the only cable→edge
// projection, and it reuses dst's backing array, so per-worker scratch
// projects trials without allocating. cableDead must fit the network (see
// ValidateDead).
func (n *Network) DeadEdgeBitsInto(dst graph.Bitset, cableDead graph.Bitset) graph.Bitset {
	g := n.Graph()
	dst = graph.GrowBitset(dst, g.NumEdges())
	// Walk only the set bits: each dead cable marks its contiguous edge-ID
	// block with word fills instead of testing every edge individually.
	for wi, w := range cableDead {
		base := wi << 6
		for w != 0 {
			ci := base + bits.TrailingZeros64(w)
			w &= w - 1
			dst.SetRange(int(n.cableEdgeStart[ci]), int(n.cableEdgeStart[ci+1]))
		}
	}
	return dst
}
