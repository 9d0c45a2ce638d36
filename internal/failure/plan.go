package failure

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Sparse-sampling thresholds. A probability bucket is sampled with
// geometric skips only when its envelope is at most 1/4 (above that the
// skips are mostly zero and per-cable draws are cheaper) and it holds
// enough cables for the skip arithmetic to amortise.
const (
	minSparseExp   = 2  // smallest eligible envelope exponent: 2^-2 = 0.25
	maxSparseExp   = 64 // probabilities below 2^-64 share the bottom bucket
	sparseMinGroup = 8
)

// sampleGroup is one compile-time probability bucket: cables whose death
// probabilities share the power-of-two envelope pmax, laid out contiguously
// in the program's groupCables/groupThr arrays.
type sampleGroup struct {
	pmax    float64
	invLogq float64    // 1 / log1p(-pmax): turns a uniform draw into a skip
	skips   *skipTable // the envelope's skip table; nil beyond maxTableExp
	first   uint64     // firstBreakpoint: a first draw below it ends the group
	start   int
	end     int
}

// Plan is a failure model compiled against one (network, model, spacing)
// triple. CableDeathProb walks cable geometry and calls math.Pow per query;
// inside a Monte Carlo run those inputs are constant, so the plan
// precomputes every per-cable death probability and a sampling program over
// them:
//
//   - cables with probability 1 live in a template bitset copied per trial,
//   - cables with probability in (0,1) are bucketed by power-of-two
//     envelope; large low-probability buckets sample via geometric skip
//     draws (one log per expected hit instead of one Bernoulli per cable)
//     thinned down to each cable's exact probability, and the rest fall
//     back to one Bernoulli draw per cable.
//
// Evaluation runs against the network's bit-packed incidence: failed
// cables are a popcount, and only nodes touching a dead cable are tested
// for unreachability, by word-AND against precompiled per-node masks.
//
// A Plan is immutable after Compile and safe for concurrent use; workers
// need only their own dead-mask bitset and RNG. Sampling and evaluating a
// trial through a Plan allocates nothing.
type Plan struct {
	net       *topology.Network
	modelName string
	spacingKm float64

	deathProb []float64 // per cable: 1-(1-p)^r, clamped to [0,1]
	repeaters []int     // per cable: repeater count at spacingKm

	baseDead graph.Bitset   // template: every probability-1 cable pre-set
	atRisk   graph.Bitset   // cables with non-zero death probability
	prog     samplerProgram // dense + sparse-bucket program over deathProb

	inc       *topology.IncidenceBits
	connected int // nodes with >= 1 cable: the NodeFrac denominator

	// vulnNodes lists the nodes that can possibly become unreachable: nodes
	// with at least one incident cable, all of whose incident cables carry
	// non-zero death probability. A node touching any immortal cable never
	// loses connectivity, so the block evaluator's column walk skips it
	// outright. Ascending node order.
	vulnNodes []int32

	// vulnCables is vulnNodes' incident cables bucketed by node degree,
	// the layout the block evaluator's column ANDs read. It is a function
	// of vulnNodes and the network alone, built and kept with it.
	vulnCables cableBuckets

	// contraction caches the network's core contraction for the current
	// at-risk set. Guarded by contractMu and self-validating through
	// Matches, so arena recompiles that preserve the immortal core (every
	// point of a uniform sweep, say) reuse the contraction for free and
	// recompiles that change it rebuild transparently.
	contractMu  sync.Mutex
	contraction *graph.CoreContraction

	// uniformNames memoizes Uniform model names across recompiles: a sweep
	// recompiles its arena plan once per (point, cell) with the same few
	// probabilities, and fmt.Sprintf in Uniform.Name was its last
	// steady-state allocation. Never cleared — the name of a probability
	// does not depend on the network or spacing.
	uniformNames map[float64]string
}

// Compile precomputes a simulation plan. It validates the spacing and
// resolves every per-cable probability exactly as CableDeathProb would.
func Compile(net *topology.Network, m Model, spacingKm float64) (*Plan, error) {
	p := &Plan{}
	if err := CompileInto(p, net, m, spacingKm); err != nil {
		return nil, err
	}
	return p, nil
}

// CompileInto is Compile reusing p's backing arrays, so a worker that
// compiles many plans (one sweep point after another) allocates only on
// first use. The previous contents of p are discarded, except what the
// new plan provably shares with them: a recompile for the same network
// (pointer) and spacing (bits) keeps the repeater counts, and one that
// also leaves the at-risk cable set unchanged keeps the vulnerable nodes.
// A network is immutable once its derived views exist, so both are exact.
// A nil network or model is refused.
func CompileInto(p *Plan, net *topology.Network, m Model, spacingKm float64) error {
	if net == nil || m == nil {
		return errors.New("failure: compile needs a network and a model")
	}
	if err := CheckSpacing(spacingKm); err != nil {
		return err
	}
	nc := len(net.Cables)
	sameNet := p.net == net
	sameGeometry := sameNet && math.Float64bits(p.spacingKm) == math.Float64bits(spacingKm) && len(p.repeaters) == nc
	p.net = net
	p.modelName = p.nameOf(m)
	p.spacingKm = spacingKm
	p.connected = net.ConnectedNodeCount()
	p.inc = net.IncidenceBits()
	if !sameGeometry {
		p.repeaters = grow(p.repeaters, nc)
		for ci := range net.Cables {
			p.repeaters[ci] = net.Cables[ci].RepeaterCount(spacingKm)
		}
	}
	p.deathProb = grow(p.deathProb, nc)
	for ci, r := range p.repeaters {
		p.deathProb[ci] = cableDeathProb(net, m, ci, r)
	}
	p.buildSampler(sameNet)
	return nil
}

// nameOf resolves a model's display name through the plan's memo for the
// Uniform sweep case; other models format their name on every compile.
func (p *Plan) nameOf(m Model) string {
	u, ok := m.(Uniform)
	if !ok {
		return m.Name()
	}
	if name, ok := p.uniformNames[u.P]; ok {
		return name
	}
	if p.uniformNames == nil {
		p.uniformNames = make(map[float64]string)
	}
	name := u.Name()
	p.uniformNames[u.P] = name
	return name
}

// envExp buckets a probability in (0,1) by its power-of-two envelope:
// the returned e satisfies 2^-(e+1) < prob <= 2^-e (exact powers of two get
// a tight envelope), clamped to maxSparseExp.
func envExp(prob float64) int {
	frac, exp := math.Frexp(prob) // prob = frac * 2^exp, frac in [0.5, 1)
	//gicnet:allow floatcmp Frexp returns exactly 0.5 for powers of two
	if frac == 0.5 {
		exp--
	}
	e := -exp
	if e > maxSparseExp {
		e = maxSparseExp
	}
	if e < 0 {
		e = 0
	}
	return e
}

// samplerProgram is the compiled Bernoulli sampling program over one
// per-cable probability vector: cables with probability in (0,1) are
// bucketed by power-of-two envelope, large low-probability buckets sample
// via geometric skips thinned to each cable's exact probability, and the
// rest take one dense Bernoulli draw each. Cables with probability 0 or 1
// are outside the program (the plan's template bitset covers the latter).
// It is shared by the plan's native probabilities and by the tilted
// distributions of the importance-sampling layer, which compile the same
// program over a reweighted vector.
//
// Each decision is stored as an xrand.Threshold, which the sampler
// compares raw draws against; the float reference in reference_test.go
// reads the probability vector the program was compiled from instead, and
// the two forms decide identically on every 53-bit draw.
//
// The dense cables are laid out by bitset word, as xrand.BelowInto takes
// them: one entry per 64-cable word holding dense cables (its index, its
// dense-cable mask and the dense offset of its lowest one), in ascending
// cable order, so the mask's bits are the dense cables in draw order.
type samplerProgram struct {
	denseWords  []xrand.BelowWord // the dense cables, one Bernoulli draw each
	denseThr    []uint64          // their thresholds, then xrand.BelowPad zeros
	groups      []sampleGroup
	groupCables []int32
	groupThr    []uint64 // xrand.Threshold(pr/pmax); certain when pr == pmax
}

// denseLen returns the number of dense cables.
func (sp *samplerProgram) denseLen() int { return len(sp.denseThr) - xrand.BelowPad }

// certain is the thinning threshold of a bucket cable whose probability is
// the envelope itself: it dies on every candidate hit without a draw.
const certain = math.MaxUint64

// compile builds the program for probs, reusing backing arrays. The layout
// is a pure function of the probabilities (no map iteration, no sorting),
// so compilation is deterministic and allocation-free in steady state.
func (sp *samplerProgram) compile(probs []float64) {
	// Reserve worst-case capacity up front (every cable dense) so the
	// scatter pass appends without doubling through realloc steps.
	sp.denseWords = grow(sp.denseWords, graph.BitsetWords(len(probs)))[:0]
	sp.denseThr = grow(sp.denseThr, len(probs)+xrand.BelowPad)[:0]
	sp.groups = sp.groups[:0]

	// Pass 1: count bucket occupancy.
	var counts [maxSparseExp + 1]int32
	for _, prob := range probs {
		if prob <= 0 || prob >= 1 {
			continue
		}
		counts[envExp(prob)]++
	}

	// Assign offsets; buckets too small or too probable go dense.
	var offs [maxSparseExp + 1]int32
	total := int32(0)
	for e := 0; e <= maxSparseExp; e++ {
		if e < minSparseExp || counts[e] < sparseMinGroup {
			offs[e] = -1
			continue
		}
		offs[e] = total
		total += counts[e]
	}
	sp.groupCables = grow(sp.groupCables, int(total))
	sp.groupThr = grow(sp.groupThr, int(total))

	// Pass 2: scatter cables; within each bucket cables stay in ascending
	// index order, which keeps the skip walk cache-friendly.
	fill := offs
	for ci, prob := range probs {
		if prob <= 0 || prob >= 1 {
			continue
		}
		e := envExp(prob)
		if o := fill[e]; o >= 0 {
			sp.groupCables[o] = int32(ci)
			sp.groupThr[o] = xrand.Threshold(math.Ldexp(prob, e))
			fill[e] = o + 1
		} else {
			w := uint32(ci >> 6)
			if n := len(sp.denseWords); n == 0 || sp.denseWords[n-1].Word != w {
				sp.denseWords = append(sp.denseWords, xrand.BelowWord{Word: w, Off: uint32(len(sp.denseThr))})
			}
			sp.denseWords[len(sp.denseWords)-1].Mask |= 1 << (uint(ci) & 63)
			sp.denseThr = append(sp.denseThr, xrand.Threshold(prob))
		}
	}
	var pad [xrand.BelowPad]uint64
	sp.denseThr = append(sp.denseThr, pad[:]...)
	for e := minSparseExp; e <= maxSparseExp; e++ {
		if offs[e] < 0 {
			continue
		}
		pmax, invLogq := envelope(e)
		sp.groups = append(sp.groups, sampleGroup{
			pmax:    pmax,
			invLogq: invLogq,
			skips:   skipTables.get(e),
			first:   firstBreakpoint(e, int(counts[e])),
			start:   int(offs[e]),
			end:     int(offs[e] + counts[e]),
		})
	}
}

// sampleInto sets the dead bit of every cable the program kills in one
// realisation: dense cables take one Bernoulli draw each, then each sparse
// bucket walks its cables with geometric skips under the bucket envelope,
// thinning each hit down to the cable's exact probability. Bits already
// set in dead are left alone.
//
// The draws are raw 64-bit words: head's first, then rng's, which is left
// past the draws it served. A Bernoulli draw is a borrow compare against
// the cable's threshold, and a skip is a lookup in the envelope's skip
// table (math.Log only for envelopes beyond the tables), so it decides
// every draw on the 53-bit grid as the float reference in
// reference_test.go does (FuzzSampleThresholds, TestSkipTablesMatchLog).
// Without a head the dense draws run through xrand.BelowInto, a vector
// kernel on hosts that have one; a head is not counter-based, so a trial
// with one decides its dense cables in the Go loop.
//
//gicnet:hotpath
func (sp *samplerProgram) sampleInto(dead graph.Bitset, head []uint64, rng *xrand.Source) {
	k := 0
	if len(head) == 0 {
		rng.BelowInto(dead, sp.denseWords, sp.denseThr)
	} else {
		k, *rng = sp.denseLoop(dead, head, *rng)
	}
	*rng = sp.walk(dead, head, k, *rng)
}

// draw returns a trial's next raw draw: head[k] while the head lasts, then
// src's. It takes and returns the cursor (k, src) by value, so a loop
// stepping it keeps both in registers.
//
//gicnet:hotpath
func draw(head []uint64, k int, src xrand.Source) (uint64, int, xrand.Source) {
	if k < len(head) {
		return head[k], k + 1, src
	}
	z, src := src.Next()
	return z, k, src
}

// denseLoop decides the dense cables one draw each, in layout order, as
// xrand.BelowInto's Go loop does, and returns the draw cursor past them.
//
//gicnet:hotpath
func (sp *samplerProgram) denseLoop(dead graph.Bitset, head []uint64, src xrand.Source) (int, xrand.Source) {
	k, t := 0, 0
	for _, w := range sp.denseWords {
		var hit uint64
		for m := w.Mask; m != 0; m &= m - 1 {
			var z uint64
			z, k, src = draw(head, k, src)
			_, below := bits.Sub64(z, sp.denseThr[t], 0)
			hit |= below << uint(bits.TrailingZeros64(m))
			t++
		}
		dead[w.Word] |= hit
	}
	return k, src
}

// walk runs the sparse groups from draw cursor (k, src) and returns the
// stream past the draws the walk took. A group's first draw below the
// group's breakpoint skips past its last cable, so it ends the group after
// one compare; that compare also ends it on the draw 0, whose log is -Inf.
//
//gicnet:hotpath
func (sp *samplerProgram) walk(dead graph.Bitset, head []uint64, k int, src xrand.Source) xrand.Source {
	for gi := range sp.groups {
		g := &sp.groups[gi]
		var z uint64
		z, k, src = draw(head, k, src)
		m := z >> 11 // the 53-bit draw behind Float64
		if m < g.first {
			continue
		}
		cables := sp.groupCables[g.start:g.end]
		thrs := sp.groupThr[g.start:g.end]
		i := 0
		for {
			left := len(cables) - i
			if g.skips != nil {
				skip := g.skips.skip(m)
				if skip >= left {
					break
				}
				i += skip
			} else {
				// Compare in float space before converting — the skip can
				// exceed int range.
				t := skipOf(float64(m)/(1<<53), g.invLogq)
				if t >= float64(left) {
					break
				}
				i += int(t)
			}
			c := uint32(cables[i])
			if th := thrs[i]; th == certain {
				dead[c>>6] |= 1 << (c & 63)
			} else {
				z, k, src = draw(head, k, src)
				_, below := bits.Sub64(z, th, 0)
				dead[c>>6] |= below << (c & 63)
			}
			i++
			z, k, src = draw(head, k, src)
			if m = z >> 11; m == 0 {
				break // log(0) = -Inf: the skip overshoots any group
			}
		}
	}
	return src
}

// buildSampler turns deathProb into the sampling program plus the plan's
// template and at-risk bitsets. sameNet reports that vulnNodes was built
// for this plan's network; it is then kept when the at-risk set comes out
// unchanged, since it is a function of the two alone.
func (p *Plan) buildSampler(sameNet bool) {
	nc := len(p.deathProb)
	w := graph.BitsetWords(nc)
	p.baseDead = graph.GrowBitset(p.baseDead, nc)
	riskSame := sameNet && len(p.atRisk) == w
	if cap(p.atRisk) < w {
		p.atRisk = make(graph.Bitset, w)
	}
	p.atRisk = p.atRisk[:w]
	for wi := range p.atRisk {
		var risk, base uint64
		for ci := wi << 6; ci < min(wi<<6+64, nc); ci++ {
			prob, bit := p.deathProb[ci], uint64(1)<<(uint(ci)&63)
			if !(prob <= 0) {
				risk |= bit
			}
			if prob >= 1 {
				base |= bit
			}
		}
		riskSame = riskSame && p.atRisk[wi] == risk
		p.atRisk[wi], p.baseDead[wi] = risk, base
	}
	p.prog.compile(p.deathProb)
	if riskSame {
		return
	}

	// Vulnerable nodes: a node can only become unreachable if every one of
	// its incident cables can die, which the per-node word masks test
	// against the at-risk set exactly as Evaluate tests them against a dead
	// mask. Nodes with no cables are excluded (they are outside the
	// NodeFrac denominator too).
	inc := p.inc
	p.vulnNodes = grow(p.vulnNodes, len(inc.MinCable))[:0]
	for ni := range inc.MinCable {
		lo, hi := inc.NodeStart[ni], inc.NodeStart[ni+1]
		if lo == hi {
			continue
		}
		vulnerable := true
		for k := lo; k < hi; k++ {
			if inc.WordMask[k]&^p.atRisk[inc.WordIdx[k]] != 0 {
				vulnerable = false
				break
			}
		}
		if vulnerable {
			p.vulnNodes = append(p.vulnNodes, int32(ni))
		}
	}
	p.vulnCables.build(inc, p.vulnNodes)
}

// cableBuckets holds a node list's incident cables grouped by the nodes'
// degree, so that each group is a loop of fixed width: the one cable of
// each degree-1 node in deg1, the two of each degree-2 node at
// deg2[2i:2i+2], the three of each degree-3 node at deg3[3i:3i+3], and
// the cables of higher-degree node i at hiCables[hiStart[i]:hiStart[i+1]].
// Every bucket keeps the list's node order, and each node's cables are
// its NodeCables run, ascending.
type cableBuckets struct {
	deg1, deg2, deg3  []int32
	hiStart, hiCables []int32
}

// build fills the buckets for nodes, sizing each exactly before filling
// it, so a rebuild within the backing arrays' capacity allocates nothing.
func (b *cableBuckets) build(inc *topology.IncidenceBits, nodes []int32) {
	var size [4]int // cables per bucket: degrees 1, 2, 3 and higher
	nHi := 0
	for _, ni := range nodes {
		d := int(inc.NodeCableStart[ni+1] - inc.NodeCableStart[ni])
		size[min(d, 4)-1] += d
		if d >= 4 {
			nHi++
		}
	}
	b.deg1 = grow(b.deg1, size[0])
	b.deg2 = grow(b.deg2, size[1])
	b.deg3 = grow(b.deg3, size[2])
	b.hiCables = grow(b.hiCables, size[3])
	b.hiStart = append(grow(b.hiStart, nHi+1)[:0], 0)
	dst := [4][]int32{b.deg1, b.deg2, b.deg3, b.hiCables}
	var at [4]int
	for _, ni := range nodes {
		cs := inc.NodeCables[inc.NodeCableStart[ni]:inc.NodeCableStart[ni+1]]
		k := min(len(cs), 4) - 1
		at[k] += copy(dst[k][at[k]:], cs)
		if k == 3 {
			b.hiStart = append(b.hiStart, int32(at[3]))
		}
	}
}

// Network returns the network the plan was compiled for.
//
//gicnet:pure
func (p *Plan) Network() *topology.Network { return p.net }

// ModelName returns the compiled model's report name.
//
//gicnet:pure
func (p *Plan) ModelName() string { return p.modelName }

// SpacingKm returns the compiled inter-repeater spacing.
//
//gicnet:pure
func (p *Plan) SpacingKm() float64 { return p.spacingKm }

// NumCables returns the cable count the plan's bitsets are sized for.
func (p *Plan) NumCables() int { return len(p.deathProb) }

// NewDead returns a zeroed dead-cable bitset sized for the plan.
func (p *Plan) NewDead() graph.Bitset { return graph.NewBitset(p.NumCables()) }

// DeathProb returns the precomputed death probability of cable ci.
func (p *Plan) DeathProb(ci int) float64 { return p.deathProb[ci] }

// RepeaterCount returns the precomputed repeater count of cable ci.
func (p *Plan) RepeaterCount(ci int) int { return p.repeaters[ci] }

// AtRiskCables returns the bitset of cables with non-zero compiled death
// probability — the frontier the contracted connectivity engine unions per
// trial. The bitset is shared plan state: read-only.
func (p *Plan) AtRiskCables() graph.Bitset { return p.atRisk }

// ImmortalCables returns a fresh bitset of the cables with zero death
// probability under the plan — the immortal core CoreContraction fuses
// into supernodes (repeater-free cables under every model, low-latitude
// cables under the tiered ones).
func (p *Plan) ImmortalCables() graph.Bitset {
	nc := len(p.deathProb)
	out := graph.NewBitset(nc)
	for wi := range out {
		out[wi] = ^p.atRisk[wi]
	}
	if r := nc & 63; r != 0 {
		out[len(out)-1] &= 1<<uint(r) - 1
	}
	return out
}

// Contraction returns the network's core contraction for the plan's
// at-risk cable set, built on first use and cached. The cache key is
// (graph, at-risk set), checked on every call, so CompileInto reuse that
// preserves the immortal core keeps the contraction and reuse that changes
// it rebuilds. Safe for concurrent callers; the returned structure is
// immutable and shared.
func (p *Plan) Contraction() *graph.CoreContraction {
	g := p.net.Graph()
	p.contractMu.Lock()
	defer p.contractMu.Unlock()
	if p.contraction == nil || !p.contraction.Matches(g, p.atRisk) {
		p.contraction = p.net.CoreContraction(p.atRisk)
	}
	return p.contraction
}

// SampleInto draws one realisation of cable deaths into dead, which must be
// sized for NumCables bits. Probability-1 cables arrive via a template
// copy, dense cables take one Bernoulli draw each, and each sparse bucket
// walks its cables with geometric skips under the bucket envelope, thinning
// each hit down to the cable's exact probability — every cable still dies
// independently with exactly its compiled probability, with RNG work
// proportional to the expected number of failures instead of the cable
// count.
//
// The draw sequence differs from SampleDense's one draw per cable; use
// SampleDense where a seed must yield the per-cable stream's realisation.
//
//gicnet:hotpath
func (p *Plan) SampleInto(dead graph.Bitset, rng *xrand.Source) {
	dead.CopyFrom(p.baseDead)
	p.prog.sampleInto(dead, nil, rng)
}

// SampleDense draws one realisation with one Bernoulli decision per cable
// in cable order, rng.Bool(DeathProb(ci)) for each (cables with
// probability 0 or 1 consume nothing). The downstream analyses (grid
// coupling, resilience, repair campaigns) draw through it, so their
// streams — and the layer draws that continue them — match the per-cable
// reference the verification layer keeps. Monte Carlo hot paths use
// SampleInto.
//
//gicnet:hotpath
func (p *Plan) SampleDense(dead graph.Bitset, rng *xrand.Source) {
	dead.Clear()
	for ci, prob := range p.deathProb {
		if rng.Bool(prob) {
			dead.Set(ci)
		}
	}
}

// Sample is SampleInto with a freshly allocated bitset.
func (p *Plan) Sample(rng *xrand.Source) graph.Bitset {
	dead := p.NewDead()
	p.SampleInto(dead, rng)
	return dead
}

// Evaluate scores a dead-cable bitset without touching the graph
// projection or allocating. Failed cables are a word-level popcount. For
// unreachability it inverts the scan: only a node incident to a dead cable
// can have lost all its cables, so it walks the set bits of dead, visits
// each dead cable's endpoint nodes, and tests "all incident cables dead"
// by word-AND against the precompiled per-node masks. Each fully-dead node
// is counted exactly once, when the walk reaches its lowest incident cable
// (necessarily dead). At the paper's low sweep probabilities this touches
// a handful of words instead of every node.
//
//gicnet:hotpath
func (p *Plan) Evaluate(dead graph.Bitset) Outcome {
	return p.finishOutcome(graph.PopcountWords(dead), p.unreachableScalar(dead))
}

// unreachableScalar is the per-trial unreachable-node walk shared by
// Evaluate and the sparse strategy of EvaluateBatch: visit each dead
// cable's endpoint nodes (once, from the node's lowest dead cable) and
// word-AND the per-node masks against the dead bitset.
//
//gicnet:hotpath
func (p *Plan) unreachableScalar(dead graph.Bitset) int {
	inc := p.inc
	unreachable := 0
	for wi, w := range dead {
		for w != 0 {
			ci := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			for _, ni := range inc.CableNodes[inc.CableStart[ci]:inc.CableStart[ci+1]] {
				if int(inc.MinCable[ni]) != ci {
					continue
				}
				allDead := true
				for k := inc.NodeStart[ni]; k < inc.NodeStart[ni+1]; k++ {
					if inc.WordMask[k]&^dead[inc.WordIdx[k]] != 0 {
						allDead = false
						break
					}
				}
				if allDead {
					unreachable++
				}
			}
		}
	}
	return unreachable
}

// finishOutcome assembles an Outcome from the two counts with the exact
// float expressions every evaluation path must share — the scalar and
// batched paths stay bit-identical because the division is performed
// identically here and nowhere else.
//
//gicnet:hotpath
func (p *Plan) finishOutcome(failed, unreachable int) Outcome {
	out := Outcome{CablesFailed: failed, NodesUnreachable: unreachable}
	if len(p.deathProb) > 0 {
		out.CableFrac = float64(failed) / float64(len(p.deathProb))
	}
	if p.connected > 0 {
		out.NodeFrac = float64(unreachable) / float64(p.connected)
	}
	return out
}

// DeathProbs returns a copy of every compiled per-cable death probability,
// indexed by cable. It exists for verification code that asserts model
// invariants (probabilities in [0,1], monotonicity in repeater count)
// without re-deriving them through CableDeathProb.
func (p *Plan) DeathProbs() []float64 {
	return append([]float64(nil), p.deathProb...)
}

// Validate checks the plan's internal invariants: every death probability
// in [0,1] and finite, repeater counts non-negative, the incidence view
// shaped for the network, the sampling program covering every cable
// with positive probability exactly once, with every stored threshold
// deciding its probability exactly, and the vulnerable nodes and their
// cable buckets matching the at-risk set. Compile always produces a valid
// plan; Validate exists so the verification subsystem can prove that
// rather than assume it.
func (p *Plan) Validate() error {
	for ci, prob := range p.deathProb {
		if math.IsNaN(prob) || prob < 0 || prob > 1 {
			return fmt.Errorf("failure: plan %s/%s: cable %d death probability %v outside [0,1]",
				p.net.Name, p.modelName, ci, prob)
		}
		if p.repeaters[ci] < 0 {
			return fmt.Errorf("failure: plan %s/%s: cable %d negative repeater count %d",
				p.net.Name, p.modelName, ci, p.repeaters[ci])
		}
		if p.repeaters[ci] == 0 && prob != 0 {
			return fmt.Errorf("failure: plan %s/%s: repeaterless cable %d has death probability %v",
				p.net.Name, p.modelName, ci, prob)
		}
	}
	if p.inc == nil || len(p.inc.NodeStart) != len(p.net.Nodes)+1 {
		return fmt.Errorf("failure: plan %s/%s: incidence bits not shaped for %d nodes",
			p.net.Name, p.modelName, len(p.net.Nodes))
	}
	if p.connected < 0 || p.connected > len(p.net.Nodes) {
		return fmt.Errorf("failure: plan %s/%s: connected node count %d outside [0,%d]",
			p.net.Name, p.modelName, p.connected, len(p.net.Nodes))
	}
	if err := p.prog.validate(p.deathProb, p.baseDead); err != nil {
		return fmt.Errorf("failure: plan %s/%s: %w", p.net.Name, p.modelName, err)
	}
	// vulnNodes must be exactly the connected nodes whose every incident
	// cable is at risk — the block evaluator's correctness rests on this
	// prefilter matching the masks Evaluate tests per trial.
	vi := 0
	for ni := range p.inc.MinCable {
		lo, hi := p.inc.NodeStart[ni], p.inc.NodeStart[ni+1]
		vulnerable := lo < hi
		for k := lo; k < hi; k++ {
			if p.inc.WordMask[k]&^p.atRisk[p.inc.WordIdx[k]] != 0 {
				vulnerable = false
				break
			}
		}
		listed := vi < len(p.vulnNodes) && int(p.vulnNodes[vi]) == ni
		if listed {
			vi++
		}
		if vulnerable != listed {
			return fmt.Errorf("failure: plan %s/%s: node %d vulnerable=%v but listed=%v in vulnNodes",
				p.net.Name, p.modelName, ni, vulnerable, listed)
		}
	}
	if vi != len(p.vulnNodes) {
		return fmt.Errorf("failure: plan %s/%s: vulnNodes has %d entries beyond the node range",
			p.net.Name, p.modelName, len(p.vulnNodes)-vi)
	}
	if err := p.vulnCables.validate(p.inc, p.vulnNodes); err != nil {
		return fmt.Errorf("failure: plan %s/%s: %w", p.net.Name, p.modelName, err)
	}
	return nil
}

// validate checks that the buckets partition nodes: walking the list in
// order, each node's exact cable list is the next entry of its degree's
// bucket, and every bucket is used up at the end, so no entry is dropped,
// duplicated, misplaced or foreign.
func (b *cableBuckets) validate(inc *topology.IncidenceBits, nodes []int32) error {
	if len(b.hiStart) == 0 || b.hiStart[0] != 0 {
		return fmt.Errorf("high-degree cable offsets %v do not start at 0", b.hiStart)
	}
	next := func(bucket []int32, k, d int) []int32 {
		return bucket[min(k, len(bucket)):min(k+d, len(bucket))]
	}
	var k1, k2, k3, kHi int
	for _, ni := range nodes {
		cs := inc.NodeCables[inc.NodeCableStart[ni]:inc.NodeCableStart[ni+1]]
		var got []int32
		switch len(cs) {
		case 1:
			got, k1 = next(b.deg1, k1, 1), k1+1
		case 2:
			got, k2 = next(b.deg2, k2, 2), k2+2
		case 3:
			got, k3 = next(b.deg3, k3, 3), k3+3
		default:
			if kHi+1 < len(b.hiStart) {
				lo, hi := max(int(b.hiStart[kHi]), 0), int(b.hiStart[kHi+1])
				got = next(b.hiCables, lo, max(hi-lo, 0))
			}
			kHi++
		}
		if !slices.Equal(got, cs) {
			return fmt.Errorf("degree-%d bucket holds %v for vulnerable node %d, want its cables %v",
				len(cs), got, ni, cs)
		}
	}
	if k1 != len(b.deg1) || k2 != len(b.deg2) || k3 != len(b.deg3) ||
		kHi != len(b.hiStart)-1 || int(b.hiStart[kHi]) != len(b.hiCables) {
		return fmt.Errorf("cable buckets hold entries beyond the %d vulnerable nodes", len(nodes))
	}
	return nil
}

// validate checks the program compiled over probs against them: each
// cable is handled by exactly one of the template base (probability 1),
// the dense list or a sparse group, and only probability-0 cables are
// absent; every group holds only probabilities within its envelope and
// carries that envelope's constants and skip table; and every stored
// threshold decides its probability exactly on the 53-bit draw grid.
func (sp *samplerProgram) validate(probs []float64, base graph.Bitset) error {
	seen := make([]int, len(probs))
	for ci := range seen {
		if base.Get(ci) {
			seen[ci]++
		}
	}
	if err := sp.validateDense(probs, seen); err != nil {
		return err
	}
	for gi := range sp.groups {
		g := &sp.groups[gi]
		e := envExp(g.pmax)
		pmax, invLogq := envelope(e)
		//gicnet:allow floatcmp the group constants must be envelope's, bit for bit
		if !(g.pmax > 0 && g.pmax <= 0.25) || g.pmax != pmax || g.invLogq != invLogq || g.skips != skipTables.get(e) {
			return fmt.Errorf("sparse group %d has envelope %v, invLogq %v and the wrong skip table",
				gi, g.pmax, g.invLogq)
		}
		if !breakpointHolds(g.first, g.invLogq, g.end-g.start) {
			return fmt.Errorf("sparse group %d of %d cables under envelope %v has breakpoint %d, not the first draw whose skip lands inside it",
				gi, g.end-g.start, g.pmax, g.first)
		}
		for k := g.start; k < g.end; k++ {
			ci := sp.groupCables[k]
			seen[ci]++
			pr := probs[ci]
			if !(pr > 0 && pr <= g.pmax) {
				return fmt.Errorf("cable %d probability %v escapes envelope %v", ci, pr, g.pmax)
			}
			th := sp.groupThr[k]
			if pr >= g.pmax && th != certain || pr < g.pmax && !thresholdDecides(th, math.Ldexp(pr, e)) {
				return fmt.Errorf("cable %d thinning threshold %#x does not decide %v under envelope %v",
					ci, th, pr, g.pmax)
			}
		}
	}
	for ci, n := range seen {
		want := 1
		if probs[ci] == 0 {
			want = 0
		}
		if n != want {
			return fmt.Errorf("cable %d appears %d times in the sampling program, want %d", ci, n, want)
		}
	}
	return nil
}

// validateDense checks the dense layout as xrand.BelowInto relies on it:
// words strictly ascending and inside the bitset, no empty mask, each
// offset counting the cables before it, one threshold per cable followed
// by exactly xrand.BelowPad zeros, and every threshold deciding its
// cable's probability. It counts each dense cable into seen.
func (sp *samplerProgram) validateDense(probs []float64, seen []int) error {
	n := sp.denseLen()
	if n < 0 {
		return fmt.Errorf("dense thresholds (%d) lack the %d-entry padding", len(sp.denseThr), xrand.BelowPad)
	}
	for _, t := range sp.denseThr[n:] {
		if t != 0 {
			return fmt.Errorf("dense threshold padding holds %#x, want 0", t)
		}
	}
	k := 0
	for i, w := range sp.denseWords {
		if w.Mask == 0 || int(w.Off) != k || int(w.Word) >= graph.BitsetWords(len(probs)) ||
			i > 0 && w.Word <= sp.denseWords[i-1].Word {
			return fmt.Errorf("dense word %d (index %d, offset %d, mask %#x) breaks the layout at cable offset %d",
				i, w.Word, w.Off, w.Mask, k)
		}
		for m := w.Mask; m != 0; m &= m - 1 {
			ci := int(w.Word)<<6 + bits.TrailingZeros64(m)
			if ci >= len(probs) || k >= n {
				return fmt.Errorf("dense word %d names cable %d, draw %d, beyond %d cables and %d thresholds",
					i, ci, k, len(probs), n)
			}
			seen[ci]++
			if !thresholdDecides(sp.denseThr[k], probs[ci]) {
				return fmt.Errorf("dense cable %d threshold %#x does not decide probability %v",
					ci, sp.denseThr[k], probs[ci])
			}
			k++
		}
	}
	if k != n {
		return fmt.Errorf("dense layout holds %d cables and %d thresholds", k, n)
	}
	return nil
}

// breakpointHolds reports whether b is the breakpoint of a group of
// length cables: K(b-1) >= length > K(b), the draw 0 (log -Inf) counting
// as a skip past every group and 2^53 (log 0) as a skip of 0.
func breakpointHolds(b uint64, invLogq float64, length int) bool {
	if b < 1 || b > 1<<53 || skipReaches(b, invLogq, length) {
		return false
	}
	return b == 1 || skipReaches(b-1, invLogq, length)
}

// thresholdDecides reports whether t decides the event Float64() < p
// exactly on the 53-bit draw grid: t is a whole number n of draws shifted
// over the 11 bits Float64 drops, the last draw below it (n-1) passes the
// float compare, and the first draw at it (n) fails.
func thresholdDecides(t uint64, p float64) bool {
	n := t >> 11
	if t&(1<<11-1) != 0 || n == 0 || n >= 1<<53 {
		return false
	}
	return float64(n-1)/(1<<53) < p && !(float64(n)/(1<<53) < p)
}

// DenseDraws returns the plan's dense cables — the ones sampled with one
// Bernoulli draw each — as the layout and padded thresholds
// xrand.BelowInto takes. Both slices are shared plan state: read-only.
// The kernel benchmarks time the dense loop on real plans through it.
func (p *Plan) DenseDraws() ([]xrand.BelowWord, []uint64) {
	return p.prog.denseWords, p.prog.denseThr
}

// ExpectedCableFrac is the analytic mean of the compiled probabilities —
// the plan-level equivalent of the package function.
func (p *Plan) ExpectedCableFrac() float64 {
	if len(p.deathProb) == 0 {
		return 0
	}
	total := 0.0
	for _, prob := range p.deathProb {
		total += prob
	}
	return total / float64(len(p.deathProb))
}

// grow returns s resliced to n elements, reallocated (zeroed) only when
// its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
