package rare

import (
	"math"
	"testing"

	"gicnet/internal/xrand"
)

// TestNewSobolValidatesDims pins the dimension contract.
func TestNewSobolValidatesDims(t *testing.T) {
	key := *xrand.New(1)
	for _, dims := range []int{0, -1, SobolMaxDims + 1} {
		if _, err := NewSobol(dims, key); err == nil {
			t.Fatalf("dims=%d: expected error", dims)
		}
	}
	if _, err := NewSobol(SobolMaxDims, key); err != nil {
		t.Fatalf("dims=%d: %v", SobolMaxDims, err)
	}
}

// TestSobolRangeAndDeterminism: every coordinate lies in [0,1), the same
// key reproduces the same points, and different keys scramble differently.
func TestSobolRangeAndDeterminism(t *testing.T) {
	a1, err := NewSobol(8, *xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := NewSobol(8, *xrand.New(5))
	b, _ := NewSobol(8, *xrand.New(6))
	p1 := make([]float64, 8)
	p2 := make([]float64, 8)
	pb := make([]float64, 8)
	differs := false
	for idx := uint32(0); idx < 512; idx++ {
		a1.Point(idx, p1)
		a2.Point(idx, p2)
		b.Point(idx, pb)
		for d := 0; d < 8; d++ {
			if !(p1[d] >= 0 && p1[d] < 1) {
				t.Fatalf("point %d dim %d: coordinate %v outside [0,1)", idx, d, p1[d])
			}
			//gicnet:allow floatcmp determinism means bit-identical replay
			if p1[d] != p2[d] {
				t.Fatalf("point %d dim %d: same key gave %v and %v", idx, d, p1[d], p2[d])
			}
			//gicnet:allow floatcmp
			if p1[d] != pb[d] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("different scramble keys produced identical sequences")
	}
}

// TestSobolStratification pins the dyadic-net property the Owen scramble
// must preserve: in every dimension, every aligned block of 2^m
// consecutive indices puts exactly one point in each of the 2^m dyadic
// bins of [0,1). This is what makes the sequence a variance reducer — and
// it is exactly the property a buggy scramble (any hash that lets a low
// bit influence a high bit) would destroy.
func TestSobolStratification(t *testing.T) {
	s, err := NewSobol(SobolMaxDims, *xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]float64, SobolMaxDims)
	for _, m := range []uint{2, 4, 6} {
		size := uint32(1) << m
		for block := uint32(0); block < 4; block++ {
			var hit [SobolMaxDims][]bool
			for d := range hit {
				hit[d] = make([]bool, size)
			}
			for i := uint32(0); i < size; i++ {
				s.Point(block*size+i, pt)
				for d := 0; d < SobolMaxDims; d++ {
					bin := int(pt[d] * float64(size))
					if hit[d][bin] {
						t.Fatalf("m=%d block=%d dim=%d: bin %d hit twice", m, block, d, bin)
					}
					hit[d][bin] = true
				}
			}
		}
	}
}

// TestSobolBeatsPseudoRandomDiscrepancy is the low-discrepancy property
// test: over anchored boxes, the scrambled Sobol prefix deviates less
// from uniform volume than a pseudo-random sample of the same size, for
// every dimension count up to 8. The anchors and both samples are fixed
// by seeds, so the comparison is deterministic.
func TestSobolBeatsPseudoRandomDiscrepancy(t *testing.T) {
	const n = 2048
	const anchors = 200
	for _, dims := range []int{2, 4, 8} {
		s, err := NewSobol(dims, *xrand.New(17))
		if err != nil {
			t.Fatal(err)
		}
		qmc := make([][]float64, n)
		prng := make([][]float64, n)
		rng := xrand.New(18)
		for i := 0; i < n; i++ {
			qmc[i] = make([]float64, dims)
			s.Point(uint32(i), qmc[i])
			prng[i] = make([]float64, dims)
			for d := 0; d < dims; d++ {
				prng[i][d] = rng.Float64()
			}
		}
		arng := xrand.New(19)
		corner := make([]float64, dims)
		dQMC, dPRNG := 0.0, 0.0
		for a := 0; a < anchors; a++ {
			vol := 1.0
			for d := 0; d < dims; d++ {
				corner[d] = arng.Float64()
				vol *= corner[d]
			}
			if dev := boxDeviation(qmc, corner, vol); dev > dQMC {
				dQMC = dev
			}
			if dev := boxDeviation(prng, corner, vol); dev > dPRNG {
				dPRNG = dev
			}
		}
		if dQMC >= dPRNG {
			t.Fatalf("dims=%d: sobol discrepancy proxy %v not below pseudo-random %v", dims, dQMC, dPRNG)
		}
		t.Logf("dims=%d: sobol %.5f vs prng %.5f", dims, dQMC, dPRNG)
	}
}

// boxDeviation is | empirical mass of [0,corner) - its volume |.
func boxDeviation(pts [][]float64, corner []float64, vol float64) float64 {
	in := 0
	for _, p := range pts {
		inside := true
		for d, c := range corner {
			if p[d] >= c {
				inside = false
				break
			}
		}
		if inside {
			in++
		}
	}
	dev := float64(in)/float64(len(pts)) - vol
	if dev < 0 {
		dev = -dev
	}
	return dev
}

// TestPointStreamOn53BitGrid pins what the quasi-Monte Carlo streams
// deliver: every uniform a trial's pointStream hands the sampler — its
// scrambled Sobol coordinates (a 32-bit integer times 2⁻³²) and the
// pseudo-random padding past them — lies on the 2⁻⁵³ grid of an xrand
// draw, so each value times 2⁵³ is an integer below 2⁵³. A finer
// generator behind either part fails it.
func TestPointStreamOn53BitGrid(t *testing.T) {
	root := *xrand.New(1859)
	for _, dims := range []int{1, 7, SobolMaxDims} {
		sob, err := NewSobol(dims, root.SplitAt(sobolKeySalt))
		if err != nil {
			t.Fatal(err)
		}
		ps := pointStream{prefix: make([]float64, dims)}
		for trial := uint64(0); trial < 500; trial++ {
			sob.Point(uint32(trial), ps.prefix)
			ps.i = 0
			ps.tail = root.SplitAt(trial)
			for k := 0; k < dims+40; k++ {
				v := ps.Float64()
				x := v * (1 << 53)
				if !(x >= 0 && x < 1<<53) || x != math.Trunc(x) {
					t.Fatalf("dims %d trial %d draw %d: %v is not a multiple of 2^-53 in [0,1)", dims, trial, k, v)
				}
			}
		}
	}
}
