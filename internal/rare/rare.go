// Package rare implements rare-event estimators for the storm trial loop:
// importance sampling from an odds-tilted cable-death distribution
// (internal/failure.TiltedSampler) and randomised quasi-Monte Carlo driven
// by an Owen-scrambled Sobol sequence, separately or combined. An
// Estimator plugs into sim.Config.Estimator, so the whole simulation stack
// — runs, sweeps and arenas — can push the uniform-probability axis
// of the paper's Figure 6 down to p = 1e-6, where plain Monte Carlo would
// need billions of trials to see a single interesting realisation.
package rare

import (
	"fmt"
	"math"
	"sync"

	"gicnet/internal/failure"
	"gicnet/internal/xrand"
)

// sobolKeySalt derives the scramble key stream from a run's root source.
// It is an arbitrary constant far outside any realistic trial index, so
// the key stream never collides with a per-trial stream split from the
// same root.
const sobolKeySalt = 0x536f626f6c6b6579 // "Sobolkey"

// Estimator draws trial blocks from a tilted and/or quasi-random version
// of a plan's death distribution and prices every trial with its log
// likelihood ratio. It implements sim.Estimator. The zero value (Lambda 0
// meaning automatic, QMC false) is a ready-to-use importance sampler; an
// Estimator is safe for concurrent SampleBlock calls from sweep workers.
type Estimator struct {
	// Lambda is the odds-tilt factor applied to every cable's death
	// probability. 1 leaves the distribution untouched (useful for pure
	// QMC); 0 or negative selects OptimalLambda for each plan the
	// estimator meets. Values must otherwise be positive and finite.
	Lambda float64
	// QMC, when set, drives each trial's uniform draws from an
	// Owen-scrambled Sobol point (one point per trial, indexed by the
	// trial number) instead of the trial's pseudo-random stream. Draws
	// beyond the sequence's dimension fall back to exactly the
	// pseudo-random stream the plain path would use.
	QMC bool
	// Target, when positive and Lambda is automatic, aims the tilt at a
	// death count instead of the single-death optimum: lambda is chosen
	// so the tilted distribution expects about Target cable deaths per
	// trial. Use it when the statistic of interest is a deep count tail
	// (P(deaths >= T)) rather than the leading rare-event order.
	Target float64

	mu    sync.Mutex
	cache map[*failure.Plan]*compiled
}

// NewIS returns an importance-sampling estimator. lambda <= 0 selects the
// variance-optimal tilt per plan.
func NewIS(lambda float64) *Estimator { return &Estimator{Lambda: lambda} }

// NewQMC returns a pure quasi-Monte Carlo estimator: untilted draws
// (every weight is exactly 1) from scrambled Sobol points.
func NewQMC() *Estimator { return &Estimator{Lambda: 1, QMC: true} }

// NewISQMC returns the combined estimator: tilted draws from scrambled
// Sobol points. lambda <= 0 selects the variance-optimal tilt per plan.
func NewISQMC(lambda float64) *Estimator { return &Estimator{Lambda: lambda, QMC: true} }

// EstimatorName implements sim.Estimator. The name is a pure function of
// the configuration so replay fingerprints commute with reconstruction.
func (e *Estimator) EstimatorName() string {
	//gicnet:allow floatcmp lambda exactly 1 is the documented "no tilt" sentinel
	tilted := e.Lambda <= 0 || e.Lambda != 1
	switch {
	case tilted && e.QMC:
		return "is-qmc"
	case e.QMC:
		return "qmc"
	default:
		return "is"
	}
}

// compiled is the per-plan state: the tilted sampler compiled for one
// probability vector, plus the Sobol dimension budget for QMC draws.
type compiled struct {
	probs []float64 // the exact vector the tilt was compiled for
	tilt  *failure.TiltedSampler
	dims  int
}

// compiledFor returns the cached tilted sampler when it still matches the
// plan's probability vector bit for bit, recompiling otherwise. The cache
// is keyed by plan identity so concurrent sweep points (distinct plans,
// one shared estimator) each keep their own entry, and the bit-identical
// probability comparison matters because arenas recycle plan storage
// across sweep points: the pointer stays, the probabilities change.
func (e *Estimator) compiledFor(plan *failure.Plan) *compiled {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c := e.cache[plan]; c != nil && sameProbs(c.probs, plan) {
		return c
	}
	lambda := e.Lambda
	if lambda <= 0 {
		if mu := ExpectedDeaths(plan); e.Target > 0 && mu > 0 {
			lambda = e.Target / mu
			if lambda < 1 {
				lambda = 1
			}
		} else {
			lambda = OptimalLambda(plan)
		}
	}
	tilt, err := failure.NewTiltedSampler(plan, lambda)
	if err != nil {
		panic(fmt.Sprintf("rare: invalid tilt configuration: %v", err))
	}
	dims := tilt.Draws()
	if dims > SobolMaxDims {
		dims = SobolMaxDims
	}
	if dims < 1 {
		dims = 1
	}
	c := &compiled{probs: plan.DeathProbs(), tilt: tilt, dims: dims}
	if e.cache == nil {
		e.cache = make(map[*failure.Plan]*compiled)
	}
	e.cache[plan] = c
	return c
}

// sameProbs reports whether the plan's death probabilities are bit for
// bit the vector a tilt was compiled from.
func sameProbs(probs []float64, plan *failure.Plan) bool {
	if plan.NumCables() != len(probs) {
		return false
	}
	for ci, p := range probs {
		if math.Float64bits(p) != math.Float64bits(plan.DeathProb(ci)) {
			return false
		}
	}
	return true
}

// ResolvedLambda returns the tilt factor the estimator uses for plan —
// the configured Lambda, or the variance-optimal choice when automatic.
func (e *Estimator) ResolvedLambda(plan *failure.Plan) float64 {
	return e.compiledFor(plan).tilt.Lambda()
}

// SampleBlock implements sim.Estimator: trials t0..t0+n-1 into the
// scratch rows, log likelihood ratios into logw[:n]. Trial t0+b draws
// from the tilted program; without QMC its draws come from
// root.SplitAt(t0+b) — the same per-trial stream as the plain path — and
// with QMC the first draws are the scrambled coordinates of Sobol point
// number t0+b (scramble keys split from root at sobolKeySalt) with the
// per-trial stream serving any overflow draws. Either way the realisation
// is a pure function of (root, trial index), so results are independent
// of worker count and block boundaries. The block's points are one
// cursor, stepped from trial to trial by sobolCursor.advance.
func (e *Estimator) SampleBlock(plan *failure.Plan, s *failure.BatchScratch, root *xrand.Source, t0 uint64, n int, logw []float64) {
	c := e.compiledFor(plan)
	if !e.QMC {
		c.tilt.SampleBatch(s, root, t0, n, logw)
		return
	}
	sob, err := NewSobol(c.dims, root.SplitAt(sobolKeySalt))
	if err != nil {
		panic(fmt.Sprintf("rare: sobol construction: %v", err))
	}
	var cur sobolCursor
	var prefix [SobolMaxDims]uint64
	head := prefix[:c.dims]
	cur.seek(uint32(t0), c.dims)
	for b := 0; b < n; b++ {
		if b > 0 {
			cur.advance(c.dims)
		}
		sob.draws(&cur, head)
		rng := root.SplitAt(t0 + uint64(b))
		logw[b] = c.tilt.SampleIntoPrefix(s.Row(b), head, &rng)
	}
}

// ExpectedDeaths returns mu, the expected number of cable deaths among
// cables that can both die and survive (0 < p < 1) — the tiltable mass
// that OptimalLambda balances against.
func ExpectedDeaths(plan *failure.Plan) float64 {
	mu := 0.0
	for ci := 0; ci < plan.NumCables(); ci++ {
		if p := plan.DeathProb(ci); p > 0 && p < 1 {
			mu += p
		}
	}
	return mu
}

// OptimalLambda returns the odds-tilt factor minimising the variance
// proxy exp(mu*(lambda - 2 + 1/lambda))/lambda — the second moment of
// the weighted single-death indicator under a small-p Poisson
// approximation of the death process. Setting the derivative to zero
// gives lambda* = (1 + sqrt(1 + 4 mu^2)) / (2 mu), which behaves like
// 1/mu for rare regimes and eases to 1 as mu grows past the point where
// tilting can help. Plans with no tiltable mass get 1 (no tilt).
func OptimalLambda(plan *failure.Plan) float64 {
	mu := ExpectedDeaths(plan)
	if !(mu > 0) {
		return 1
	}
	lam := (1 + math.Sqrt(1+4*mu*mu)) / (2 * mu)
	if lam < 1 {
		lam = 1
	}
	return lam
}
