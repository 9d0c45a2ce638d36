package failure

import (
	"math"
	"testing"

	"gicnet/internal/xrand"
)

// FuzzTiltedSampler drives the importance-sampling primitive over random
// networks, probabilities and tilt factors. Properties: construction on a
// valid plan (any spacing CheckSpacing accepts) and positive finite lambda
// always succeeds and validates;
// every sampled realisation prices to a finite log likelihood ratio that
// matches a dense recomputation from the probability vectors; and at
// lambda = 1 the sampler is the plain sampler with every weight exactly
// zero in log space. The integer program is held to the float reference
// on every trial stream and on raw-draw prefixes, including draws on
// both sides of each group's breakpoint.
func FuzzTiltedSampler(f *testing.F) {
	f.Add(uint64(1), 8, 12, 150.0, 0.01, 4.0)
	f.Add(uint64(1859), 32, 48, 50.0, 0.5, 0.1)
	f.Add(uint64(7), 16, 24, 500.0, 1e-6, 900.0)
	f.Add(uint64(42), 4, 6, 80.0, 0.999, 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, nodes, cables int, spacingKm, p, lambda float64) {
		if CheckSpacing(spacingKm) != nil || spacingKm > 1e6 {
			t.Skip()
		}
		if !(p >= 0) || p > 1 {
			t.Skip()
		}
		if !(lambda > 0) || lambda > 1e9 || math.IsNaN(lambda) {
			t.Skip()
		}
		net := fuzzNetwork(seed, nodes, cables)
		plan, err := Compile(net, Uniform{P: p}, spacingKm)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		ts, err := NewTiltedSampler(plan, lambda)
		if err != nil {
			t.Fatalf("tilted sampler: %v", err)
		}
		if err := ts.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
		root := xrand.New(seed ^ 0x746c6974)
		var streams []xrand.Source
		for trial := uint64(0); trial < 16; trial++ {
			streams = append(streams, root.SplitAt(trial))
		}
		sameAsFloatTilted(t, ts, streams)
		samePrefixAsFloat(t, ts, prefixCases(&ts.prog, seed), seed)
		dead := plan.NewDead()
		for trial := uint64(0); trial < 16; trial++ {
			rng := root.SplitAt(trial)
			logw := ts.SampleInto(dead, &rng)
			if math.IsNaN(logw) || math.IsInf(logw, 0) {
				t.Fatalf("trial %d: log weight %v not finite", trial, logw)
			}
			//gicnet:allow floatcmp the no-tilt identity is exact by construction
			if lambda == 1 && logw != 0 {
				t.Fatalf("trial %d: lambda=1 log weight %v, want exactly 0", trial, logw)
			}
			want := denseLogWeight(plan, ts, dead)
			if math.Abs(logw-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("trial %d: log weight %v, dense recomputation %v", trial, logw, want)
			}
		}
	})
}
