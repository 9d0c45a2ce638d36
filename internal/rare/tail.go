package rare

import (
	"context"

	"gicnet/internal/failure"
	"gicnet/internal/sim"
	"gicnet/internal/stats"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// bootSalt splits the bootstrap resampling streams off a sweep's seed,
// away from the simulation's own trial streams.
const bootSalt = 0x626f6f7473747261 // "bootstra"

// TailConfig configures a rare-event probability sweep — the Figure 6
// axis continued past where plain Monte Carlo stops resolving anything.
type TailConfig struct {
	// SpacingKm is the repeater spacing, as in sim.Config.
	SpacingKm float64
	// Trials per sweep point.
	Trials int
	// Seed drives both the simulation and the bootstrap resampling.
	Seed uint64
	// Workers is the simulation worker budget (0 = GOMAXPROCS).
	Workers int
	// Level is the CI coverage; 0 means 0.95.
	Level float64
	// Resamples is the bootstrap replicate count; 0 means 200.
	Resamples int
	// Threshold defines the tail event: a trial counts when at least
	// this many cables die. 0 means 2 — "more than an isolated loss",
	// the smallest event that is genuinely rare at small p.
	Threshold int
	// Estimator draws the trials; nil runs plain Monte Carlo, which is
	// the honest baseline a tail sweep should be compared against.
	Estimator *Estimator
}

// TailPoint is one probability on the tail sweep with its weighted
// estimates and diagnostics.
type TailPoint struct {
	// P is the per-repeater failure probability of the uniform model.
	P float64
	// CableMean and NodeMean are the weighted means of the per-trial
	// failed-cable and unreachable-node fractions (estimates of the
	// plan's own expectations, whatever distribution drew the trials).
	CableMean float64
	NodeMean  float64
	// TailProb estimates P(CablesFailed >= Threshold).
	TailProb float64
	// TailCI is the bootstrap interval around TailProb.
	TailCI stats.CI
	// ESS is Kish's effective sample size of the trial weights.
	ESS float64
	// MeanWeight is the average likelihood ratio. Its expectation is
	// exactly 1; drift from 1 beyond a few standard errors flags a
	// support or pricing bug in the tilt.
	MeanWeight float64
	// Estimator names the drawing estimator ("" = plain Monte Carlo).
	Estimator string
}

// TailSweep runs one simulation per probability in ps on the uniform
// model and summarises each into a TailPoint. Points derive independent
// seeds from cfg.Seed (via sim.SweepUniform), so the sweep is reproducible
// and worker-count independent; the bootstrap streams are split from the
// same seed under a distinct salt, one per point, and the points'
// bootstraps share the worker budget.
func TailSweep(ctx context.Context, net *topology.Network, cfg TailConfig, ps []float64) ([]TailPoint, error) {
	level := cfg.Level
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	resamples := cfg.Resamples
	if resamples <= 0 {
		resamples = 200
	}
	thresh := cfg.Threshold
	if thresh <= 0 {
		thresh = 2
	}
	simCfg := sim.Config{
		SpacingKm: cfg.SpacingKm,
		Trials:    cfg.Trials,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		Model:     failure.Uniform{P: 0},
	}
	if cfg.Estimator != nil {
		// Assigned under a nil guard: a typed nil in the interface field
		// would read as "estimator present" to the trial loop.
		simCfg.Estimator = cfg.Estimator
	}
	pts, err := sim.SweepUniform(ctx, net, simCfg, ps)
	if err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)
	out := make([]TailPoint, len(pts))
	// Each point resamples from its own split stream, so the points
	// bootstrap in parallel under the worker budget with the intervals
	// they get one after another.
	err = sim.ForEach(ctx, len(pts), cfg.Workers, func(k int) error {
		pt := pts[k]
		res := pt.Result
		tp, vals, ws := summarize(res, thresh)
		rng := root.SplitAt(bootSalt ^ uint64(k))
		ci, err := stats.WeightedBootstrapCI(vals, ws, level, resamples, &rng)
		if err != nil {
			return err
		}
		tp.P, tp.TailCI, tp.Estimator = pt.P, ci, res.Estimator
		out[k] = tp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// summarize folds a point's weighted estimates into one pass over its
// trials, each weight exponentiated once: the means, ESS and mean weight,
// plus the tail indicators and weights the bootstrap resamples. Each sum
// runs in trial order with the terms sim.Result's WeightedMean and ESS
// add (w·f, w, w·w), so every field is bit-identical to theirs.
func summarize(res *sim.Result, thresh int) (tp TailPoint, vals, ws []float64) {
	n := len(res.Outcomes)
	vals = make([]float64, n)
	ws = make([]float64, n)
	var cable, node, tail, sumW, sumSq float64
	for i, o := range res.Outcomes {
		w := res.Weight(i)
		hit := 0.0
		if o.CablesFailed >= thresh {
			hit = 1
		}
		vals[i], ws[i] = hit, w
		cable += w * o.CableFrac
		node += w * o.NodeFrac
		tail += w * hit
		sumW += w
		sumSq += w * w
	}
	if n > 0 {
		tp.CableMean = cable / float64(n)
		tp.NodeMean = node / float64(n)
		tp.TailProb = tail / float64(n)
	}
	switch {
	case res.LogWeights == nil:
		tp.ESS = float64(n)
	case sumSq != 0:
		tp.ESS = sumW * sumW / sumSq
	}
	tp.MeanWeight = sumW / float64(n)
	return tp, vals, ws
}
