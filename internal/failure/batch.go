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
// row-major dead masks, the column-major (bitsliced) view the block
// evaluator transposes them into, and the per-node death masks it counts.
// The zero value is ready for Grow.
type BatchScratch struct {
	words  int          // words per trial row
	masks  graph.Bitset // MaxBatch rows, row b at [b*words, (b+1)*words)
	cols   []uint64     // per-cable trial columns, indexed by cable
	deaths []uint64     // per vulnerable node, padded to a multiple of 16
}

// Grow sizes the scratch for p, reusing backing arrays when large enough.
// Call once per (worker, plan) before the block loop; the hot calls below
// never allocate.
func (s *BatchScratch) Grow(p *Plan) {
	w := graph.BitsetWords(p.NumCables())
	s.words = w
	s.masks = grow(s.masks, MaxBatch*w)
	s.cols = grow(s.cols, w*64)
	s.deaths = grow(s.deaths, (len(p.vulnNodes)+15)&^15)
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
	if p.columnsPay(totalFailed, s.words) {
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

// columnsPay is EvaluateBatch's strategy choice: the column path for a
// block with at least words + len(vulnNodes)/16 dead cables, the scalar
// walk below that. Both strategies read every word of the block once —
// the walk scans each row, the columns transpose it — so the break-even
// is set by what each adds: the walk a CSR visit per dead cable (about 14
// ns on ITU to 45 ns on the submarine map, per 64-trial block at -cpu 1),
// the columns an AND and a carry-save step per vulnerable node (about 1.7
// ns). Timed per block, the two meet at about 65–100 dead cables on the
// submarine map under S1 at 150 km (8 words, 1,064 vulnerable nodes),
// under 10 on Intertubes (9, 54), 60–200 on ITU at 150 km (184, 799) and
// 950 on ITU at 50 km (184, 7,254); the rule picks 74, 12, 233 and 637,
// at most 1.15× the faster path in the bands between. Both strategies
// compute identical counts, so the choice affects speed only; it is
// deterministic, as the block's content and the plan's structure alone
// decide.
//
//gicnet:hotpath
func (p *Plan) columnsPay(totalFailed, words int) bool {
	return totalFailed >= words+len(p.vulnNodes)/16
}

// unreachableColumns is the dense block strategy: bitslice the block into
// per-cable trial columns, then for each vulnerable node AND its incident
// cables' columns — the surviving bits are exactly the trials in which
// every incident cable died. Nodes touching an immortal cable are
// prefiltered (their column AND is identically zero), and each vulnerable
// node is visited exactly once, so the counts match the scalar walk's
// visit-once-from-lowest-dead-cable accounting bit for bit.
//
// The ANDs run bucket by bucket (cableBuckets): a fixed number of loads
// per node of degree 1, 2 or 3, so no branch depends on the data, and a
// short loop for the few nodes of higher degree. Each node's death mask
// lands in s.deaths.
//
// The counts are bit-sliced: plane j holds bit j of every trial's count,
// so a node costs a few word operations however many trials it dies in.
// A Harley–Seal carry-save tree adds the death masks 16 at a time into
// the ones, twos, fours and eights planes (csa keeps a+b+c = 2·hi+lo in
// every bit lane, so the weighted sum of the planes and the carried-out
// sixteens is exactly the number of masks added); each group's sixteens
// mask then ripples into the planes from 4 up, and zero masks pad the
// last group. bits.Len(len(vulnNodes)) planes hold any count, and one
// transpose turns the planes into the n per-trial counts.
//
//gicnet:hotpath
func (p *Plan) unreachableColumns(s *BatchScratch, n int, out []Outcome) {
	words := s.words
	for wi := 0; wi < words; wi++ {
		blk := (*[64]uint64)(s.cols[wi<<6:])
		for b := 0; b < n; b++ {
			blk[b] = s.masks[b*words+wi]
		}
		clear(blk[n:]) // absent trials contribute no dead cables
		graph.Transpose64(blk)
	}
	cols, d, vc := s.cols, s.deaths, &p.vulnCables
	i := 0
	for _, c := range vc.deg1 {
		d[i] = cols[c]
		i++
	}
	for k := 1; k < len(vc.deg2); k += 2 {
		d[i] = cols[vc.deg2[k-1]] & cols[vc.deg2[k]]
		i++
	}
	for k := 2; k < len(vc.deg3); k += 3 {
		d[i] = cols[vc.deg3[k-2]] & cols[vc.deg3[k-1]] & cols[vc.deg3[k]]
		i++
	}
	for h := 1; h < len(vc.hiStart); h++ {
		m := ^uint64(0)
		for _, c := range vc.hiCables[vc.hiStart[h-1]:vc.hiStart[h]] {
			m &= cols[c]
		}
		d[i] = m
		i++
	}
	clear(d[i:])

	var planes [64]uint64
	var ones, twos, fours, eights uint64
	for g := 16; g <= len(d); g += 16 {
		x := (*[16]uint64)(d[g-16 : g])
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		twosA, ones = csa(ones, x[0], x[1])
		twosB, ones = csa(ones, x[2], x[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, x[4], x[5])
		twosB, ones = csa(ones, x[6], x[7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, x[8], x[9])
		twosB, ones = csa(ones, x[10], x[11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, x[12], x[13])
		twosB, ones = csa(ones, x[14], x[15])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		sixteens, eights = csa(eights, eightsA, eightsB)
		for j := 4; sixteens != 0; j++ {
			planes[j], sixteens = planes[j]^sixteens, planes[j]&sixteens
		}
	}
	planes[0], planes[1], planes[2], planes[3] = ones, twos, fours, eights
	graph.Transpose64(&planes)
	for b := 0; b < n; b++ {
		out[b].NodesUnreachable = int(planes[b])
	}
}

// csa is a carry-save adder on 64 bit lanes: in every lane,
// a + b + c = 2·hi + lo.
//
//gicnet:hotpath
func csa(a, b, c uint64) (hi, lo uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}
