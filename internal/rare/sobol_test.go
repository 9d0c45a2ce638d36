package rare

import (
	"math/bits"
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
		point(&a1, idx, p1)
		point(&a2, idx, p2)
		point(&b, idx, pb)
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
				point(&s, block*size+i, pt)
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
			point(&s, uint32(i), qmc[i])
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

// owenScramble is the Owen scramble of coordinate x as its definition
// reads, reversal in and out: the reference owenHash on a reversed
// coordinate is held to.
func owenScramble(x, seed uint32) uint32 {
	return owenHash(bits.Reverse32(x), seed)
}

// point writes the coordinates of point index into out[:Dims], each in
// [0,1): the raw draws SampleBlock hands the sampler, as Float64 reads
// them.
func point(s *Sobol, index uint32, out []float64) {
	var c sobolCursor
	c.seek(index, s.dims)
	var draws [SobolMaxDims]uint64
	s.draws(&c, draws[:s.dims])
	for d := 0; d < s.dims; d++ {
		out[d] = float64(draws[d]>>11) / (1 << 53)
	}
}

// TestSobolCursorMatchesRaw holds the delta step to sobolRaw: a cursor
// seeked anywhere, the 2^32 wrap included, and advanced point by point
// must hold sobolRaw(d, index) in every dimension at every step.
func TestSobolCursorMatchesRaw(t *testing.T) {
	starts := []uint32{0, 1, 63, 64, 1<<31 - 3, 1 << 31, 1<<32 - 200, 1<<32 - 64, 1<<32 - 1}
	rng := xrand.New(0x64656c7461)
	for i := 0; i < 16; i++ {
		starts = append(starts, uint32(rng.Uint64()))
	}
	for _, start := range starts {
		var c sobolCursor
		c.seek(start, SobolMaxDims)
		for step := 0; step < 300; step++ {
			if step > 0 {
				c.advance(SobolMaxDims)
			}
			index := start + uint32(step)
			if c.index != index {
				t.Fatalf("start %d step %d: cursor at index %d, want %d", start, step, c.index, index)
			}
			for d := 0; d < SobolMaxDims; d++ {
				if got, want := bits.Reverse32(c.rev[d]), sobolRaw(d, index); got != want {
					t.Fatalf("start %d, index %d, dim %d: cursor holds %#x, sobolRaw %#x", start, index, d, got, want)
				}
			}
		}
	}
}

// TestPointStreamOn53BitGrid pins what the quasi-Monte Carlo streams hand
// the sampler: every prefix draw of a block's trials is its scrambled
// Sobol coordinate shifted up 32 bits — the low 32 bits zero, so its top
// 53 bits are the coordinate on the 2^-53 grid of an xrand draw, which
// the integer thresholds and skip tables decide exactly — and equals
// owenScramble(sobolRaw(d, trial)), the coordinate built from scratch.
func TestPointStreamOn53BitGrid(t *testing.T) {
	root := *xrand.New(1859)
	for _, dims := range []int{1, 7, SobolMaxDims} {
		sob, err := NewSobol(dims, root.SplitAt(sobolKeySalt))
		if err != nil {
			t.Fatal(err)
		}
		for _, t0 := range []uint32{0, 64, 1<<32 - 100} {
			var c sobolCursor
			head := make([]uint64, dims)
			c.seek(t0, dims)
			for b := uint32(0); b < 200; b++ {
				if b > 0 {
					c.advance(dims)
				}
				sob.draws(&c, head)
				for d, z := range head {
					want := uint64(owenScramble(sobolRaw(d, t0+b), sob.seeds[d])) << 32
					if z&(1<<32-1) != 0 || z != want {
						t.Fatalf("dims %d trial %d draw %d: %#x, want %#x with the low 32 bits zero", dims, t0+b, d, z, want)
					}
				}
			}
		}
	}
}
