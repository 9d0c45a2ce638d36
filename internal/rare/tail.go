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
		n := len(res.Outcomes)
		vals := make([]float64, n)
		ws := make([]float64, n)
		sumW := 0.0
		for i, o := range res.Outcomes {
			if o.CablesFailed >= thresh {
				vals[i] = 1
			}
			ws[i] = res.Weight(i)
			sumW += ws[i]
		}
		rng := root.SplitAt(bootSalt ^ uint64(k))
		ci, err := stats.WeightedBootstrapCI(vals, ws, level, resamples, &rng)
		if err != nil {
			return err
		}
		out[k] = TailPoint{
			P:          pt.P,
			CableMean:  res.WeightedMean(func(o failure.Outcome) float64 { return o.CableFrac }),
			NodeMean:   res.WeightedMean(func(o failure.Outcome) float64 { return o.NodeFrac }),
			TailProb:   res.WeightedMean(func(o failure.Outcome) float64 { return b2f(o.CablesFailed >= thresh) }),
			TailCI:     ci,
			ESS:        res.ESS(),
			MeanWeight: sumW / float64(n),
			Estimator:  res.Estimator,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
