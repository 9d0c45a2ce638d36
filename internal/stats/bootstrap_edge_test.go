package stats

import (
	"math"
	"testing"

	"gicnet/internal/xrand"
)

// TestBootstrapCIRejectsBadArgs pins the argument contract shared by the
// plain and weighted variants.
func TestBootstrapCIRejectsBadArgs(t *testing.T) {
	rng := xrand.New(1)
	xs := []float64{1, 2, 3}
	if _, err := BootstrapCI(nil, 0.95, 100, rng); err == nil {
		t.Fatal("empty sample: expected error")
	}
	for _, level := range []float64{0, 1, -0.5, 1.5} {
		if _, err := BootstrapCI(xs, level, 100, rng); err == nil {
			t.Fatalf("level=%v: expected error", level)
		}
	}
	for _, resamples := range []int{0, -5, 9} {
		if _, err := BootstrapCI(xs, 0.95, resamples, rng); err == nil {
			t.Fatalf("resamples=%d: expected error", resamples)
		}
	}
	if _, err := BootstrapCI([]float64{1, math.NaN()}, 0.95, 100, rng); err == nil {
		t.Fatal("NaN sample: expected error")
	}
}

// TestBootstrapCIDegenerateSamples: one-element and all-equal inputs must
// give the zero-width interval at that value, never NaN.
func TestBootstrapCIDegenerateSamples(t *testing.T) {
	rng := xrand.New(2)
	for _, xs := range [][]float64{{7.5}, {3, 3, 3, 3}} {
		ci, err := BootstrapCI(xs, 0.95, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(ci.Lo) || math.IsNaN(ci.Hi) {
			t.Fatalf("degenerate sample %v: NaN interval %+v", xs, ci)
		}
		if ci.Lo != xs[0] || ci.Hi != xs[0] {
			t.Fatalf("degenerate sample %v: interval [%v,%v], want exactly [%v,%v]",
				xs, ci.Lo, ci.Hi, xs[0], xs[0])
		}
		if !ci.Contains(xs[0]) || ci.Width() != 0 {
			t.Fatalf("degenerate sample %v: %+v", xs, ci)
		}
	}
}

// TestWeightedBootstrapCIContract: length mismatch and invalid weights
// are rejected; unit weights reproduce the plain bootstrap exactly when
// driven by the same stream.
func TestWeightedBootstrapCIContract(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if _, err := WeightedBootstrapCI(xs, []float64{1, 1}, 0.95, 100, xrand.New(3)); err == nil {
		t.Fatal("length mismatch: expected error")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), -1} {
		ws := []float64{1, 1, w, 1, 1}
		if _, err := WeightedBootstrapCI(xs, ws, 0.95, 100, xrand.New(3)); err == nil {
			t.Fatalf("weight %v: expected error", w)
		}
	}
	ones := []float64{1, 1, 1, 1, 1}
	plain, err := BootstrapCI(xs, 0.9, 200, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := WeightedBootstrapCI(xs, ones, 0.9, 200, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	//gicnet:allow floatcmp same stream and unit weights must resample identically
	if plain.Lo != weighted.Lo || plain.Hi != weighted.Hi {
		t.Fatalf("unit-weight bootstrap %+v differs from plain %+v", weighted, plain)
	}
}

// TestWeightedBootstrapCICoversWeightedMean: the interval should cover
// the unnormalised weighted mean it bootstraps on a well-behaved sample.
func TestWeightedBootstrapCICoversWeightedMean(t *testing.T) {
	rng := xrand.New(5)
	n := 400
	xs := make([]float64, n)
	ws := make([]float64, n)
	sum := 0.0
	for i := range xs {
		xs[i] = rng.Float64()
		ws[i] = 0.5 + rng.Float64()
		sum += ws[i] * xs[i]
	}
	mean := sum / float64(n)
	ci, err := WeightedBootstrapCI(xs, ws, 0.99, 500, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(mean) {
		t.Fatalf("99%% interval [%v,%v] misses the weighted mean %v", ci.Lo, ci.Hi, mean)
	}
	if ci.Width() <= 0 {
		t.Fatalf("interval degenerate: %+v", ci)
	}
}

// weightedBootstrapRef is WeightedBootstrapCI's resampling loop in its
// gather form: each resample multiplies the drawn weight and value.
func weightedBootstrapRef(xs, ws []float64, level float64, resamples int, rng *xrand.Source) CI {
	means := make([]float64, resamples)
	for r := range means {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			j := rng.Intn(len(xs))
			sum += ws[j] * xs[j]
		}
		means[r] = sum / float64(len(xs))
	}
	return percentileCI(means, level)
}

// TestWeightedBootstrapCIMatchesGather pins the precomputed-product loop
// to the gather form bit for bit, on importance-sampling-like weights
// spanning many orders of magnitude and at a non-power-of-two size.
func TestWeightedBootstrapCIMatchesGather(t *testing.T) {
	rng := xrand.New(21)
	for _, n := range []int{1, 7, 1000, 8191} {
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
			ws[i] = math.Exp(-30 * rng.Float64())
		}
		got, err := WeightedBootstrapCI(xs, ws, 0.9, 64, xrand.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		//gicnet:allow floatcmp the two loops sum identical products in identical order
		if want := weightedBootstrapRef(xs, ws, 0.9, 64, xrand.New(uint64(n))); got != want {
			t.Fatalf("n=%d: %+v, gather form %+v", n, got, want)
		}
	}
}

// TestBootstrapRareSampleMatchesGather holds the chunked bulk-index loop
// to the gather form on rare-event-like samples, at sizes below, at and
// across the chunk (powers of two, where IntnInto takes its vector run,
// and not): a handful of hits among zeros, signed zeros from zero weights
// on negative values, and negative products.
func TestBootstrapRareSampleMatchesGather(t *testing.T) {
	rng := xrand.New(0x73706172)
	for _, n := range []int{1, 2, 10, 256, resampleChunk, resampleChunk + 3, 1024, 4096, 8191, 8192} {
		for _, hits := range []int{0, 1, 3, n / 40, n / 16, n / 4} {
			xs := make([]float64, n)
			ws := make([]float64, n)
			for i := range xs {
				ws[i] = math.Exp(-20 * rng.Float64())
				switch rng.Intn(4) {
				case 0:
					xs[i] = math.Copysign(0, -1) // a -0 product
				case 1:
					xs[i], ws[i] = -rng.Float64(), 0 // zero weight on a negative value: -0
				case 2:
					xs[i], ws[i] = rng.Float64(), 0
				}
			}
			for h := 0; h < hits; h++ {
				i := rng.Intn(n)
				xs[i], ws[i] = rng.Range(-1, 1), math.Exp(-20*rng.Float64())
			}
			got, err := WeightedBootstrapCI(xs, ws, 0.9, 32, xrand.New(uint64(n+hits)))
			if err != nil {
				t.Fatal(err)
			}
			//gicnet:allow floatcmp the two loops add identical products in identical order
			if want := weightedBootstrapRef(xs, ws, 0.9, 32, xrand.New(uint64(n+hits))); got != want {
				t.Fatalf("n=%d, about %d hits: %+v, gather form %+v", n, hits, got, want)
			}
		}
	}
}

// BenchmarkWeightedBootstrapCI is the rare-event tail's interval at its
// working size: 8,192 weighted draws, 200 resamples.
func BenchmarkWeightedBootstrapCI(b *testing.B) {
	rng := xrand.New(3)
	xs := make([]float64, 8192)
	ws := make([]float64, len(xs))
	for i := range xs {
		xs[i] = rng.Float64()
		ws[i] = math.Exp(-10 * rng.Float64())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedBootstrapCI(xs, ws, 0.95, 200, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
