package rare

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
)

// testNet builds a small deterministic world: a ring of coastal nodes
// with chords, long enough cables to carry a few hundred repeaters. Small
// enough that the statistical tests run in milliseconds per thousand
// trials, rich enough to exercise both sampler bucket kinds.
func testNet() *topology.Network {
	const n = 12
	net := &topology.Network{Name: "rare-test"}
	for i := 0; i < n; i++ {
		net.Nodes = append(net.Nodes, topology.Node{
			Name:     fmt.Sprintf("n%d", i),
			Coord:    geo.Coord{Lat: float64(i*5 - 30), Lon: float64(i*25 - 150)},
			HasCoord: true,
		})
	}
	addCable := func(a, b int, km float64) {
		net.Cables = append(net.Cables, topology.Cable{
			Name:        fmt.Sprintf("c%d-%d", a, b),
			Segments:    []topology.Segment{{A: a, B: b, LengthKm: km}},
			KnownLength: true,
		})
	}
	for i := 0; i < n; i++ {
		addCable(i, (i+1)%n, 2000+float64(i)*300)
	}
	for i := 0; i < n; i += 2 {
		addCable(i, (i+5)%n, 6000+float64(i)*400)
	}
	return net
}

func testPlan(t *testing.T, p float64) *failure.Plan {
	t.Helper()
	plan, err := failure.Compile(testNet(), failure.Uniform{P: p}, 150)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestEstimatorNames pins the name scheme the fingerprints embed.
func TestEstimatorNames(t *testing.T) {
	for _, tc := range []struct {
		est  *Estimator
		want string
	}{
		{NewIS(0), "is"},
		{NewIS(4), "is"},
		{NewQMC(), "qmc"},
		{NewISQMC(0), "is-qmc"},
		{NewISQMC(3), "is-qmc"},
	} {
		if got := tc.est.EstimatorName(); got != tc.want {
			t.Fatalf("EstimatorName() = %q, want %q", got, tc.want)
		}
	}
}

// TestOptimalLambda checks the closed form against its defining
// first-order condition and the rare-regime asymptotics.
func TestOptimalLambda(t *testing.T) {
	plan := testPlan(t, 1e-5)
	mu := ExpectedDeaths(plan)
	if mu <= 0 {
		t.Fatalf("expected positive tiltable mass, got %v", mu)
	}
	lam := OptimalLambda(plan)
	obj := func(l float64) float64 { return math.Exp(mu*(l-2+1/l)) / l }
	for _, other := range []float64{lam * 0.9, lam * 1.1, 1, 2 * lam} {
		if obj(lam) > obj(other)+1e-12 {
			t.Fatalf("lambda*=%v: objective %v beaten by lambda=%v (%v)", lam, obj(lam), other, obj(other))
		}
	}
	if mu < 0.2 && math.Abs(lam*mu-1) > 0.2 {
		t.Fatalf("rare regime mu=%v: lambda*=%v should approximate 1/mu", mu, lam)
	}
}

// TestTargetLambda pins the count-targeted tilt: with Target set, the
// tilted distribution expects about Target deaths.
func TestTargetLambda(t *testing.T) {
	plan := testPlan(t, 1e-5)
	mu := ExpectedDeaths(plan)
	est := &Estimator{Target: 5}
	lam := est.ResolvedLambda(plan)
	if math.Abs(lam-5/mu) > 1e-9*lam {
		t.Fatalf("Target=5: lambda %v, want %v", lam, 5/mu)
	}
}

// tailProb is the benchmark/test statistic: the indicator of at least
// thresh cable deaths.
func tailProb(res *sim.Result, thresh int) float64 {
	return res.WeightedMean(func(o failure.Outcome) float64 {
		if o.CablesFailed >= thresh {
			return 1
		}
		return 0
	})
}

// TestUnbiasednessAgainstPlainMC is the headline invariant: at a moderate
// probability where plain Monte Carlo still resolves the tail event, the
// importance-sampled and QMC estimates agree with the plain estimate
// within overlapping bootstrap confidence intervals.
func TestUnbiasednessAgainstPlainMC(t *testing.T) {
	net := testNet()
	ps := []float64{3e-4}
	cis := map[string]struct {
		lo, hi float64
	}{}
	for _, est := range []*Estimator{nil, NewIS(0), NewQMC(), NewISQMC(0)} {
		name := "plain"
		if est != nil {
			name = est.EstimatorName()
		}
		cfg := TailConfig{SpacingKm: 150, Trials: 6000, Seed: 1859, Workers: 2, Estimator: est}
		pts, err := TailSweep(context.Background(), net, cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		pt := pts[0]
		if pt.TailProb <= 0 {
			t.Fatalf("%s: tail probability %v, want positive at moderate p", name, pt.TailProb)
		}
		cis[name] = struct{ lo, hi float64 }{pt.TailCI.Lo, pt.TailCI.Hi}
		t.Logf("%-7s tail=%.4e ci=[%.4e,%.4e] ess=%.0f", name, pt.TailProb, pt.TailCI.Lo, pt.TailCI.Hi, pt.ESS)
	}
	plain := cis["plain"]
	for name, ci := range cis {
		if ci.lo > plain.hi || ci.hi < plain.lo {
			t.Fatalf("%s CI [%v,%v] does not overlap plain CI [%v,%v] — biased estimator", name, ci.lo, ci.hi, plain.lo, plain.hi)
		}
	}
}

// TestWeightNormalization checks sum(w)/n = 1 within a few standard
// errors: the likelihood ratios are exact, so their mean is an unbiased
// estimate of 1 and drift flags a pricing bug.
func TestWeightNormalization(t *testing.T) {
	net := testNet()
	for _, est := range []*Estimator{NewIS(0), NewISQMC(0)} {
		cfg := sim.Config{SpacingKm: 150, Trials: 20000, Seed: 4242, Workers: 2,
			Model: failure.Uniform{P: 1e-4}, Estimator: est}
		res, err := sim.Run(context.Background(), net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, sumSq := 0.0, 0.0
		for i := range res.Outcomes {
			w := res.Weight(i)
			sum += w
			sumSq += w * w
		}
		n := float64(len(res.Outcomes))
		mean := sum / n
		se := math.Sqrt((sumSq/n - mean*mean) / n)
		if math.Abs(mean-1) > 5*se+1e-12 {
			t.Fatalf("%s: mean weight %v +- %v, want 1", est.EstimatorName(), mean, se)
		}
		if ess := res.ESS(); ess <= 0 || ess > n {
			t.Fatalf("%s: ESS %v outside (0, %v]", est.EstimatorName(), ess, n)
		}
	}
}

// TestQMCWeightsExactlyOne: the untilted QMC estimator changes which
// uniforms drive the trials but not the distribution, so every log
// weight is exactly zero and the ESS is the trial count.
func TestQMCWeightsExactlyOne(t *testing.T) {
	net := testNet()
	cfg := sim.Config{SpacingKm: 150, Trials: 1000, Seed: 7, Workers: 1,
		Model: failure.Uniform{P: 1e-3}, Estimator: NewQMC()}
	res, err := sim.Run(context.Background(), net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimator != "qmc" {
		t.Fatalf("Estimator = %q, want qmc", res.Estimator)
	}
	for i, lw := range res.LogWeights {
		if lw != 0 {
			t.Fatalf("trial %d: qmc log weight %v, want exactly 0", i, lw)
		}
	}
	if ess := res.ESS(); ess != float64(cfg.Trials) {
		t.Fatalf("ESS = %v, want %v", ess, cfg.Trials)
	}
}

// TestEstimatorWorkerIndependence: estimator runs must stay worker-count
// independent, exactly like the plain path — the per-trial streams and
// Sobol indices are functions of the trial number alone.
func TestEstimatorWorkerIndependence(t *testing.T) {
	net := testNet()
	for _, est := range []*Estimator{NewIS(0), NewISQMC(0)} {
		var fps []uint64
		for _, workers := range []int{1, 3, 8} {
			cfg := sim.Config{SpacingKm: 150, Trials: 500, Seed: 99, Workers: workers,
				Model: failure.Uniform{P: 1e-3}, Estimator: est}
			res, err := sim.Run(context.Background(), net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fps = append(fps, res.Fingerprint())
		}
		if fps[0] != fps[1] || fps[1] != fps[2] {
			t.Fatalf("%s: fingerprints differ across worker counts: %x", est.EstimatorName(), fps)
		}
	}
}

// TestTailSweepWorkerIndependence: each sweep point bootstraps from its
// own split stream, so the points come out bit-identical whether their
// bootstraps run one after another or in parallel.
func TestTailSweepWorkerIndependence(t *testing.T) {
	net := testNet()
	ps := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	var sweeps [][]TailPoint
	for _, workers := range []int{1, 2, 4} {
		cfg := TailConfig{SpacingKm: 150, Trials: 600, Seed: 21, Workers: workers, Estimator: NewIS(0)}
		pts, err := TailSweep(context.Background(), net, cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		sweeps = append(sweeps, pts)
	}
	for _, pts := range sweeps[1:] {
		if !reflect.DeepEqual(pts, sweeps[0]) {
			t.Fatalf("tail points differ across worker counts:\n%+v\n%+v", pts, sweeps[0])
		}
	}
}

// TestPlainPathUnchangedByEstimatorSupport: a nil-estimator run carries
// no weights and no estimator tag, so its fingerprint hashes exactly the
// bytes the pre-estimator engine hashed.
func TestPlainPathUnchangedByEstimatorSupport(t *testing.T) {
	net := testNet()
	cfg := sim.Config{SpacingKm: 150, Trials: 200, Seed: 3, Workers: 1, Model: failure.Uniform{P: 1e-3}}
	res, err := sim.Run(context.Background(), net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogWeights != nil || res.Estimator != "" {
		t.Fatalf("plain run carries estimator state: weights=%v estimator=%q", res.LogWeights != nil, res.Estimator)
	}
	if ess := res.ESS(); ess != float64(cfg.Trials) {
		t.Fatalf("plain ESS = %v, want trial count", ess)
	}
}

// TestVarianceReductionAtRareP is the qualitative half of the benchdiff
// gate, cheap enough for the unit suite: deep in the tail the weighted
// per-trial variance of the IS estimator must undercut plain Monte
// Carlo's by a wide margin (the benchmark gates the precise ratio).
func TestVarianceReductionAtRareP(t *testing.T) {
	net := testNet()
	ps := []float64{1e-6}
	plainCfg := TailConfig{SpacingKm: 150, Trials: 4000, Seed: 1859, Workers: 2}
	plain, err := TailSweep(context.Background(), net, plainCfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	isCfg := plainCfg
	isCfg.Estimator = NewISQMC(0)
	is, err := TailSweep(context.Background(), net, isCfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	// Plain MC cannot even see the event at this depth on this budget;
	// the estimator must resolve it with a non-degenerate interval.
	if is[0].TailProb <= 0 {
		t.Fatalf("is-qmc tail estimate %v, want positive", is[0].TailProb)
	}
	if is[0].TailCI.Width() <= 0 {
		t.Fatalf("is-qmc CI degenerate: %+v", is[0].TailCI)
	}
	if plain[0].TailProb > 0 && plain[0].TailCI.Width() < is[0].TailCI.Width() {
		t.Fatalf("plain CI %v narrower than is-qmc %v at p=1e-6 — variance reduction missing",
			plain[0].TailCI.Width(), is[0].TailCI.Width())
	}
	t.Logf("plain tail=%v, is-qmc tail=%v ci=[%v,%v] ess=%.0f",
		plain[0].TailProb, is[0].TailProb, is[0].TailCI.Lo, is[0].TailCI.Hi, is[0].ESS)
}
