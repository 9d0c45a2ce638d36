package failure

import (
	"fmt"
	"math"
	"math/bits"

	"gicnet/internal/graph"
	"gicnet/internal/xrand"
)

// maxTiltedProb caps a tilted probability strictly below 1 so likelihood
// ratios stay finite: a cable with p < 1 must keep positive survival
// probability under the tilted distribution or the estimator loses the
// survival branch's mass. 1 - 2^-40 leaves log(1-q) comfortably
// representable while being indistinguishable from certain death in
// practice.
const maxTiltedProb = 1 - 1.0/(1<<40)

// minTiltedProb floors a tilted probability of a can-die cable away from 0
// for the mirror reason: q = 0 with p > 0 would zero out realisations the
// target distribution can produce, biasing every weighted estimate.
const minTiltedProb = 1e-300

// TiltedSampler draws cable deaths from an exponentially tilted version of
// a compiled Plan and prices each realisation with its exact likelihood
// ratio, which is the importance-sampling primitive behind the rare-event
// estimators in internal/rare.
//
// The tilt is applied per cable in odds space: a cable with death
// probability p gets tilted probability q with q/(1-q) = lambda * p/(1-p),
// i.e. q = lambda*p / (1 + (lambda-1)*p). Odds tilting keeps q inside
// (0,1) for every p in (0,1) and every positive lambda, reduces to q = p
// at lambda = 1, and — because the plan's sampling program is a pure
// function of the probability vector — reuses the same dense/sparse-bucket
// machinery as the untilted path: the tilt really is just a per-bucket
// parameter change.
//
// For a realisation D (the set of dead cables) the likelihood ratio is
//
//	w(D) = prod_{i in D} p_i/q_i * prod_{i not in D} (1-p_i)/(1-q_i)
//
// over cables with 0 < p_i < 1 (cables with p = 0 never die on either
// path; cables with p = 1 always die and contribute a factor of 1).
// LogWeight accumulates it as baseLog + sum over dead cables of a
// precomputed per-cable adjustment, so pricing a trial costs O(words +
// deaths), not O(cables). Under a pure odds tilt every adjustment equals
// -log(lambda), but the sampler prices from the stored per-cable tilted
// probabilities so that the clamps above (and future per-bucket tilts)
// stay exactly priced.
//
// A TiltedSampler is immutable after construction and safe for concurrent
// use by workers holding their own dead bitsets and RNG streams.
type TiltedSampler struct {
	plan    *Plan
	lambda  float64
	baseLog float64   // sum over 0<p<1 cables of log((1-p)/(1-q))
	adj     []float64 // per cable: log(p/q) - log((1-p)/(1-q)); 0 outside (0,1)
	qProb   []float64 // per cable tilted probability (0 and 1 preserved)
	prog    samplerProgram
}

// NewTiltedSampler compiles the odds-tilted sampling program for plan at
// the given tilt factor. lambda must be positive and finite; lambda = 1
// reproduces the plan's own distribution (with every weight exactly 1).
func NewTiltedSampler(plan *Plan, lambda float64) (*TiltedSampler, error) {
	if !(lambda > 0) || math.IsInf(lambda, 1) {
		return nil, fmt.Errorf("failure: tilt factor %v outside (0, +Inf)", lambda)
	}
	t := &TiltedSampler{
		plan:   plan,
		lambda: lambda,
		adj:    make([]float64, len(plan.deathProb)),
		qProb:  make([]float64, len(plan.deathProb)),
	}
	for ci, p := range plan.deathProb {
		switch {
		case p <= 0:
			// never dies under either distribution
		case p >= 1:
			t.qProb[ci] = 1 // always dies; likelihood ratio 1
		default:
			var q float64
			//gicnet:allow floatcmp lambda exactly 1 must reproduce the plan bit for bit
			if lambda == 1 {
				// No tilt: q = p without clamping, so the weights are
				// identically zero in log space and the compiled program
				// is the plan's own.
				q = p
			} else {
				q = lambda * p / (1 + (lambda-1)*p)
				if q > maxTiltedProb {
					q = maxTiltedProb
				}
				if q < minTiltedProb {
					q = minTiltedProb
				}
			}
			t.qProb[ci] = q
			// log((1-p)/(1-q)) via log1p for precision at small p, q.
			survive := math.Log1p(-p) - math.Log1p(-q)
			t.baseLog += survive
			t.adj[ci] = math.Log(p) - math.Log(q) - survive
		}
	}
	t.prog.compile(t.qProb)
	return t, nil
}

// Draws returns a conservative upper bound on how many draws one trial of
// the tilted program consumes in expectation: one per dense cable plus two
// per expected sparse-bucket hit plus one terminating draw per bucket. The
// quasi-Monte Carlo estimators size a trial's low-discrepancy prefix by it.
func (t *TiltedSampler) Draws() int { return t.prog.expectedDraws(t.qProb) }

// expectedDraws is Draws for the program compiled over probs.
func (sp *samplerProgram) expectedDraws(probs []float64) int {
	draws := float64(sp.denseLen() + len(sp.groups))
	for gi := range sp.groups {
		g := &sp.groups[gi]
		for _, ci := range sp.groupCables[g.start:g.end] {
			draws += 2 * probs[ci] / g.pmax
		}
	}
	if draws > 1<<20 {
		return 1 << 20
	}
	return int(math.Ceil(draws))
}

// Plan returns the plan whose distribution the sampler tilts.
func (t *TiltedSampler) Plan() *Plan { return t.plan }

// Lambda returns the tilt factor.
func (t *TiltedSampler) Lambda() float64 { return t.lambda }

// TiltedProb returns cable ci's death probability under the tilted
// distribution.
func (t *TiltedSampler) TiltedProb(ci int) float64 { return t.qProb[ci] }

// SampleInto draws one realisation from the tilted distribution into dead
// (sized for the plan's cable count) and returns its log likelihood ratio
// log w = log dP/dQ evaluated at the realisation. exp of the returned
// value reweights any per-trial statistic back to an unbiased estimate
// under the plan's own distribution.
//
//gicnet:hotpath
func (t *TiltedSampler) SampleInto(dead graph.Bitset, rng *xrand.Source) float64 {
	return t.SampleIntoPrefix(dead, nil, rng)
}

// SampleIntoPrefix is SampleInto reading its first raw draws from prefix
// and the rest from rng, which it leaves past the draws it served: the
// quasi-Monte Carlo estimators put a trial's scrambled Sobol coordinates
// in prefix. A draw is what Uint64 returns, decided on its top 53 bits.
//
//gicnet:hotpath
func (t *TiltedSampler) SampleIntoPrefix(dead graph.Bitset, prefix []uint64, rng *xrand.Source) float64 {
	dead.CopyFrom(t.plan.baseDead)
	t.prog.sampleInto(dead, prefix, rng)
	return t.LogWeight(dead)
}

// SampleBatch draws trials t0..t0+n-1 into the scratch rows with trial
// t0+b seeded from root.SplitAt(t0+b) — the same per-trial streams as
// Plan.SampleBatch — and writes each trial's log likelihood ratio into
// logw[:n]. n must be at most MaxBatch.
//
//gicnet:hotpath
func (t *TiltedSampler) SampleBatch(s *BatchScratch, root *xrand.Source, t0 uint64, n int, logw []float64) {
	for b := 0; b < n; b++ {
		rng := root.SplitAt(t0 + uint64(b))
		logw[b] = t.SampleInto(s.Row(b), &rng)
	}
}

// LogWeight prices a dead-cable realisation: the log likelihood ratio of
// dead under (plan distribution) / (tilted distribution). dead must be a
// realisation the tilted program can produce (every probability-1 cable
// set); LogWeight itself accepts any bitset and prices the set bits.
//
//gicnet:hotpath
//gicnet:pure
func (t *TiltedSampler) LogWeight(dead graph.Bitset) float64 {
	lw := t.baseLog
	adj := t.adj
	for wi, w := range dead {
		for ; w != 0; w &= w - 1 {
			lw += adj[wi<<6+bits.TrailingZeros64(w)]
		}
	}
	return lw
}

// Validate checks the sampler's internal invariants: tilted probabilities
// share support with the plan's, adjustments are finite, and the compiled
// program covers exactly the cables with tilted probability in (0,1), with
// every stored threshold deciding its probability exactly.
func (t *TiltedSampler) Validate() error {
	p := t.plan
	if len(t.qProb) != len(p.deathProb) || len(t.adj) != len(p.deathProb) {
		return fmt.Errorf("failure: tilted sampler sized for %d cables, plan has %d", len(t.qProb), len(p.deathProb))
	}
	if math.IsNaN(t.baseLog) || math.IsInf(t.baseLog, 0) {
		return fmt.Errorf("failure: tilted sampler baseLog %v not finite", t.baseLog)
	}
	for ci, q := range t.qProb {
		prob := p.deathProb[ci]
		if math.IsNaN(q) || q < 0 || q > 1 {
			return fmt.Errorf("failure: tilted probability %v for cable %d outside [0,1]", q, ci)
		}
		if (prob > 0) != (q > 0) || (prob >= 1) != (q >= 1) {
			return fmt.Errorf("failure: tilted probability %v changes support of cable %d (p=%v)", q, ci, prob)
		}
		if math.IsNaN(t.adj[ci]) || math.IsInf(t.adj[ci], 0) {
			return fmt.Errorf("failure: tilt adjustment %v for cable %d not finite", t.adj[ci], ci)
		}
	}
	if err := t.prog.validate(t.qProb, p.baseDead); err != nil {
		return fmt.Errorf("failure: tilted sampler: %w", err)
	}
	return nil
}
