package failure

import (
	"gicnet/internal/graph"
	"gicnet/internal/xrand"
)

// Trial-block sampling and evaluation. SampleInto/Evaluate score one trial
// at a time: at high failure probabilities the evaluate walk re-chases the
// same incidence CSR for every trial, loading each node's word masks once
// per trial. The block path amortises that walk: it draws up to MaxBatch
// trials into row-major dead masks, transposes each 64-cable word group
// into per-cable trial columns (bit b of cols[ci] = cable ci dead in trial
// b), and then answers "all incident cables dead?" for every vulnerable
// node across the whole block with one AND-chain over its cables' columns
// — the incidence structure is loaded once per block instead of once per
// trial.
//
// Determinism contract: trial ti always samples from root.SplitAt(ti), the
// exact per-trial stream the scalar loop uses, and both evaluation
// strategies compute the same counts, so every replay fingerprint and
// golden figure is bit-identical to the scalar path regardless of block
// boundaries or strategy choice.

// MaxBatch is the trial-block width: one machine word of trials, so a
// block's per-cable dead/alive column is exactly one uint64.
const MaxBatch = 64

// BatchScratch is the per-worker storage for trial blocks: MaxBatch
// row-major dead masks plus the column-major (bitsliced) view the block
// evaluator transposes them into. The zero value is ready for Grow.
type BatchScratch struct {
	words int          // words per trial row
	masks graph.Bitset // MaxBatch rows, row b at [b*words, (b+1)*words)
	cols  []uint64     // per-cable trial columns, indexed by cable
}

// Grow sizes the scratch for p, reusing backing arrays when large enough.
// Call once per (worker, plan) before the block loop; the hot calls below
// never allocate.
func (s *BatchScratch) Grow(p *Plan) {
	w := graph.BitsetWords(p.NumCables())
	s.words = w
	if cap(s.masks) < MaxBatch*w {
		s.masks = make(graph.Bitset, MaxBatch*w)
	}
	s.masks = s.masks[:MaxBatch*w]
	if cap(s.cols) < w*64 {
		s.cols = make([]uint64, w*64)
	}
	s.cols = s.cols[:w*64]
}

// Row returns trial b's dead-cable bitset within the block.
//
//gicnet:hotpath
func (s *BatchScratch) Row(b int) graph.Bitset {
	return s.masks[b*s.words : (b+1)*s.words]
}

// SampleBatch draws trials t0..t0+n-1 into the scratch rows, one
// realisation per row. Each trial uses the stream root.SplitAt(t0+b) — the
// same per-trial seeding as the scalar loop — so the drawn realisations do
// not depend on how trials are grouped into blocks or spread over workers.
// n must be at most MaxBatch.
//
//gicnet:hotpath
func (p *Plan) SampleBatch(s *BatchScratch, root *xrand.Source, t0 uint64, n int) {
	for b := 0; b < n; b++ {
		rng := root.SplitAt(t0 + uint64(b))
		p.SampleInto(s.Row(b), &rng)
	}
}

// EvaluateBatch scores the first n scratch rows into out[:n], producing
// exactly Evaluate(row) for each — same counts, same float divisions. Per-
// row failed-cable counts come from the vectorised popcount; for the
// unreachable-node count it picks between two exact-equivalent strategies
// by block density: near-empty blocks walk each row's few dead cables
// through the scalar incidence walk, denser blocks transpose into cable
// columns and AND-chain each vulnerable node's columns once for all n
// trials at once.
//
//gicnet:hotpath
func (p *Plan) EvaluateBatch(s *BatchScratch, n int, out []Outcome) {
	totalFailed := 0
	for b := 0; b < n; b++ {
		f := graph.PopcountWords(s.Row(b))
		out[b] = Outcome{CablesFailed: f}
		totalFailed += f
	}
	// Strategy break-even: the scalar walk costs a CSR visit per dead
	// cable, the column path a fixed transpose per word group plus a few
	// loads per vulnerable node. Timed per 64-trial block on the three
	// generated networks, the two meet at about 10,600 dead cables on ITU
	// (184 words), 610 on Intertubes (9) and 280 on the submarine map (8);
	// 50 dead cables per word misses only in the bands between those
	// points and 9,200, 450 and 400, at most about 1.5× the faster path
	// there. Both compute identical counts, so this choice affects
	// speed only — it must merely be deterministic, and it is: block
	// content alone decides.
	if totalFailed >= s.words*50 {
		p.unreachableColumns(s, n, out)
	} else {
		for b := 0; b < n; b++ {
			out[b].NodesUnreachable = p.unreachableScalar(s.Row(b))
		}
	}
	for b := 0; b < n; b++ {
		out[b] = p.finishOutcome(out[b].CablesFailed, out[b].NodesUnreachable)
	}
}

// unreachableColumns is the dense block strategy: bitslice the block into
// per-cable trial columns, then for each vulnerable node AND its incident
// cables' columns — the surviving bits are exactly the trials in which
// every incident cable died. Nodes touching an immortal cable are
// prefiltered (their column AND is identically zero), and each vulnerable
// node is visited exactly once, so the counts match the scalar walk's
// visit-once-from-lowest-dead-cable accounting bit for bit.
//
// The counts are bit-sliced: each node's death mask is added into counter
// planes with a ripple carry, plane j holding bit j of every trial's
// count, so a node costs a few word operations however many trials it
// dies in. bits.Len(len(vulnNodes)) planes hold any count, and one
// transpose turns the planes into the n per-trial counts.
//
//gicnet:hotpath
func (p *Plan) unreachableColumns(s *BatchScratch, n int, out []Outcome) {
	words := s.words
	var tmp [64]uint64
	for wi := 0; wi < words; wi++ {
		for b := 0; b < n; b++ {
			tmp[b] = s.masks[b*words+wi]
		}
		for b := n; b < MaxBatch; b++ {
			tmp[b] = 0 // absent trials contribute no dead cables
		}
		graph.Transpose64(&tmp)
		copy(s.cols[wi<<6:(wi+1)<<6], tmp[:])
	}
	inc := p.inc
	cols := s.cols
	var planes [64]uint64
	for _, ni := range p.vulnNodes {
		lo, hi := inc.NodeCableStart[ni], inc.NodeCableStart[ni+1]
		m := cols[inc.NodeCables[lo]]
		for k := lo + 1; k < hi && m != 0; k++ {
			m &= cols[inc.NodeCables[k]]
		}
		for j := 0; m != 0; j++ {
			planes[j], m = planes[j]^m, planes[j]&m
		}
	}
	graph.Transpose64(&planes)
	for b := 0; b < n; b++ {
		out[b].NodesUnreachable = int(planes[b])
	}
}
