package stats

import (
	"errors"
	"math"
	"sort"

	"gicnet/internal/xrand"
)

// CI is a two-sided confidence interval.
type CI struct {
	Lo, Hi float64
	// Level is the nominal coverage (e.g. 0.95).
	Level float64
}

// BootstrapCI estimates a percentile-bootstrap confidence interval for the
// mean of xs using resamples draws. The paper reports plain standard
// deviations over 10 trials; the bootstrap gives downstream users a
// distribution-free alternative for small trial counts. Inputs containing
// NaN are rejected (a NaN would otherwise poison the resample means and
// sort nondeterministically); a single-element or all-equal sample
// degenerates cleanly to the zero-width interval at that value.
func BootstrapCI(xs []float64, level float64, resamples int, rng *xrand.Source) (CI, error) {
	if err := checkBootstrapArgs(xs, level, resamples); err != nil {
		return CI{}, err
	}
	return resampleCI(xs, level, resamples, rng), nil
}

// WeightedBootstrapCI is BootstrapCI for the unnormalised
// importance-sampling estimator (1/n) * sum w_i * x_i: index resamples
// draw (weight, value) pairs together, so the interval reflects the joint
// variability of rare hits and their likelihood ratios. Weights must be
// finite and non-negative; NaN values or weights are rejected like
// BootstrapCI's. With every weight 1 it matches BootstrapCI in
// distribution.
func WeightedBootstrapCI(xs, ws []float64, level float64, resamples int, rng *xrand.Source) (CI, error) {
	if err := checkBootstrapArgs(xs, level, resamples); err != nil {
		return CI{}, err
	}
	if len(ws) != len(xs) {
		return CI{}, errors.New("stats: weights length mismatch")
	}
	for _, w := range ws {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return CI{}, errors.New("stats: weights must be finite and non-negative")
		}
	}
	// Each resample gathers the same float products ws[j]*xs[j], so
	// forming them once leaves every sum bit-identical.
	wx := make([]float64, len(xs))
	for j := range wx {
		wx[j] = ws[j] * xs[j]
	}
	return resampleCI(wx, level, resamples, rng), nil
}

// resampleCI is the percentile bootstrap of the mean of vals: each
// resample draws len(vals) indices with IntnInto, the draws Intn would
// make one at a time, and adds the values they pick in draw order, so
// every replicate mean is the float sum of a draw-by-draw loop. The
// indices are drawn a chunk at a time into a buffer on the stack, which
// stays in the L1 cache and costs no allocation.
func resampleCI(vals []float64, level float64, resamples int, rng *xrand.Source) CI {
	n := len(vals)
	means := make([]float64, resamples)
	var buf [resampleChunk]int
	for r := range means {
		sum := 0.0
		for done := 0; done < n; {
			idx := buf[:min(n-done, resampleChunk)]
			rng.IntnInto(idx, n)
			for _, j := range idx {
				sum += vals[j]
			}
			done += len(idx)
		}
		means[r] = sum / float64(n)
	}
	return percentileCI(means, level)
}

// resampleChunk is how many indices resampleCI draws at a time: a
// multiple of IntnInto's eight-draw vector step.
const resampleChunk = 512

// checkBootstrapArgs validates the shared BootstrapCI argument contract.
func checkBootstrapArgs(xs []float64, level float64, resamples int) error {
	if len(xs) == 0 {
		return ErrEmpty
	}
	if level <= 0 || level >= 1 {
		return errors.New("stats: confidence level out of (0,1)")
	}
	if resamples <= 0 {
		return errors.New("stats: resamples must be positive")
	}
	if resamples < 10 {
		return errors.New("stats: need at least 10 resamples")
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return errors.New("stats: sample contains NaN")
		}
	}
	return nil
}

// percentileCI sorts the bootstrap replicate means in place and reads the
// symmetric percentile interval off them.
func percentileCI(means []float64, level float64) CI {
	sort.Float64s(means)
	resamples := len(means)
	alpha := (1 - level) / 2
	lo := means[int(alpha*float64(resamples))]
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return CI{Lo: lo, Hi: means[hiIdx], Level: level}
}

// Contains reports whether v lies in the interval.
func (c CI) Contains(v float64) bool { return v >= c.Lo && v <= c.Hi }

// Width returns Hi - Lo.
func (c CI) Width() float64 { return c.Hi - c.Lo }
