package rare

import (
	"fmt"
	"math/bits"

	"gicnet/internal/xrand"
)

// SobolMaxDims is the number of dimensions the embedded direction-number
// table supports. Trials that consume more draws than this pad the
// remaining draws with a pseudo-random tail (see Estimator.SampleBlock),
// which is the standard hybrid for variable-dimension integrands: the
// first draws of a trial decide the bulk of the variance, so they get the
// low-discrepancy treatment.
const SobolMaxDims = 32

// sobolSpec holds the primitive polynomial (degree s, interior coefficient
// bits a) and initial direction values m_1..m_s for dimensions 2..32 of
// the Joe-Kuo table. Dimension 1 is the van der Corput sequence and needs
// no entry. Every m_k is odd and below 2^k, which is what Sobol'
// construction requires of a valid digital sequence.
var sobolSpec = [SobolMaxDims - 1]struct {
	s uint
	a uint32
	m [7]uint32
}{
	{1, 0, [7]uint32{1}},
	{2, 1, [7]uint32{1, 3}},
	{3, 1, [7]uint32{1, 3, 1}},
	{3, 2, [7]uint32{1, 1, 1}},
	{4, 1, [7]uint32{1, 1, 3, 3}},
	{4, 4, [7]uint32{1, 3, 5, 13}},
	{5, 2, [7]uint32{1, 1, 5, 5, 17}},
	{5, 4, [7]uint32{1, 1, 5, 5, 5}},
	{5, 7, [7]uint32{1, 1, 7, 11, 19}},
	{5, 11, [7]uint32{1, 1, 5, 1, 1}},
	{5, 13, [7]uint32{1, 1, 1, 3, 11}},
	{5, 14, [7]uint32{1, 3, 5, 5, 31}},
	{6, 1, [7]uint32{1, 3, 3, 9, 7, 49}},
	{6, 13, [7]uint32{1, 1, 1, 15, 21, 21}},
	{6, 16, [7]uint32{1, 3, 1, 13, 27, 49}},
	{6, 19, [7]uint32{1, 1, 1, 15, 7, 5}},
	{6, 22, [7]uint32{1, 3, 1, 15, 13, 25}},
	{6, 25, [7]uint32{1, 1, 5, 5, 19, 61}},
	{7, 1, [7]uint32{1, 3, 7, 11, 23, 15, 103}},
	{7, 4, [7]uint32{1, 3, 7, 13, 13, 15, 69}},
	{7, 7, [7]uint32{1, 1, 3, 13, 7, 35, 63}},
	{7, 8, [7]uint32{1, 3, 5, 9, 1, 25, 53}},
	{7, 14, [7]uint32{1, 3, 1, 13, 9, 35, 107}},
	{7, 19, [7]uint32{1, 3, 1, 5, 27, 61, 31}},
	{7, 21, [7]uint32{1, 1, 5, 11, 19, 41, 61}},
	{7, 28, [7]uint32{1, 3, 5, 3, 3, 13, 69}},
	{7, 31, [7]uint32{1, 1, 7, 13, 1, 19, 1}},
	{7, 32, [7]uint32{1, 3, 7, 5, 13, 19, 59}},
	{7, 37, [7]uint32{1, 1, 3, 9, 25, 29, 41}},
	{7, 41, [7]uint32{1, 3, 5, 13, 23, 1, 55}},
	{7, 42, [7]uint32{1, 3, 7, 3, 13, 59, 17}},
}

// sobolDirs are the expanded 32-bit direction numbers, dimension-major;
// computed once at init from sobolSpec via the standard recurrence
//
//	v_k = v_{k-s} ^ (v_{k-s} >> s) ^ a_1 v_{k-1} ^ ... ^ a_{s-1} v_{k-s+1}.
var sobolDirs [SobolMaxDims][32]uint32

// sobolSteps are the direction numbers' prefix XORs, dimension-major and
// bit-reversed: sobolSteps[d][c] = Reverse32(v_0 ^ ... ^ v_c), which is
// sobolRaw(d, 2^(c+1) - 1) reversed. Going from index t to t+1 flips bits
// 0..c of t, c being the number of trailing ones of t, and sobolRaw is
// linear over GF(2) in the index bits, so raw(t+1) = raw(t) ^ (v_0 ^ ...
// ^ v_c), and bit reversal commutes with XOR (see sobolCursor.advance).
var sobolSteps [SobolMaxDims][32]uint32

func init() {
	// Dimension 1: van der Corput, v_k = 2^(32-k).
	for k := 0; k < 32; k++ {
		sobolDirs[0][k] = 1 << (31 - uint(k))
	}
	for d := 1; d < SobolMaxDims; d++ {
		spec := &sobolSpec[d-1]
		v := &sobolDirs[d]
		for k := uint(0); k < spec.s; k++ {
			v[k] = spec.m[k] << (31 - k)
		}
		for k := spec.s; k < 32; k++ {
			prev := v[k-spec.s]
			x := prev ^ (prev >> spec.s)
			for j := uint(1); j < spec.s; j++ {
				if spec.a>>(spec.s-1-j)&1 != 0 {
					x ^= v[k-j]
				}
			}
			v[k] = x
		}
	}
	for d := range sobolDirs {
		acc := uint32(0)
		for k, v := range sobolDirs[d] {
			acc ^= v
			sobolSteps[d][k] = bits.Reverse32(acc)
		}
	}
}

// sobolRaw returns the unscrambled 32-bit integer coordinate of point
// index in dimension d: the XOR of the direction numbers selected by the
// set bits of the index.
//
//gicnet:pure
func sobolRaw(d int, index uint32) uint32 {
	v := &sobolDirs[d]
	var x uint32
	for k := 0; index != 0; k++ {
		if index&1 != 0 {
			x ^= v[k]
		}
		index >>= 1
	}
	return x
}

// owenHash is the hash-based Owen (nested uniform) scramble of one 32-bit
// coordinate, taking and returning it bit-reversed in and as is out: the
// scrambled coordinate x is owenHash(Reverse32(x), seed). The hash
// operates in bit-reversed space, where every operation (carry-propagating
// add, XOR with an even multiple of the input) only moves information from
// lower to higher bits — reversed back, each output digit depends on
// itself and its more significant digits only, which is exactly the
// structure of an Owen scramble. It therefore preserves every dyadic
// stratification property of the digital sequence while decorrelating
// the deterministic Sobol artefacts, and different seeds give
// statistically independent randomisations. A sobolCursor keeps its
// coordinates bit-reversed, so each scramble pays one reversal, not two.
//
//gicnet:pure
func owenHash(rev, seed uint32) uint32 {
	x := rev + seed
	x ^= x * 0x6c50b47c
	x ^= x * 0xb82f1e52
	x ^= x * 0xc7afe638
	x ^= x * 0x8d22f6e6
	return bits.Reverse32(x)
}

// Sobol is an Owen-scrambled Sobol sequence over up to SobolMaxDims
// dimensions. The zero value is not useful; build one with NewSobol. A
// Sobol value is immutable and safe for concurrent use.
type Sobol struct {
	dims  int
	seeds [SobolMaxDims]uint32
}

// NewSobol returns the scrambled sequence with per-dimension scramble
// seeds split from key, so the randomisation is a pure function of (key
// state, dimension): replay fingerprints stay deterministic however the
// points are consumed.
func NewSobol(dims int, key xrand.Source) (Sobol, error) {
	if dims < 1 || dims > SobolMaxDims {
		return Sobol{}, fmt.Errorf("rare: sobol dimensions %d outside [1,%d]", dims, SobolMaxDims)
	}
	s := Sobol{dims: dims}
	for d := 0; d < dims; d++ {
		child := key.SplitAt(uint64(d))
		s.seeds[d] = uint32(child.Uint64() >> 32)
	}
	return s, nil
}

// Dims returns the number of dimensions per point.
func (s *Sobol) Dims() int { return s.dims }

// sobolCursor holds one point's unscrambled coordinates, bit-reversed,
// which the next point's differ from by one XOR per dimension: a block of
// consecutive trials builds its first point from the index bits and
// steps to the rest.
type sobolCursor struct {
	index uint32
	rev   [SobolMaxDims]uint32 // Reverse32(sobolRaw(d, index))
}

// seek places the cursor on point index in the first dims dimensions.
func (c *sobolCursor) seek(index uint32, dims int) {
	c.index = index
	for d := 0; d < dims; d++ {
		c.rev[d] = bits.Reverse32(sobolRaw(d, index))
	}
}

// advance moves the cursor to point index+1 (mod 2^32, where the step
// flips all 32 bits and lands on point 0's zero coordinates).
func (c *sobolCursor) advance(dims int) {
	// The step flips bits 0..ones of the index; from 2^32-1 it flips
	// all 32, which is sobolSteps' last entry.
	ones := min(bits.TrailingZeros32(^c.index), 31)
	for d := 0; d < dims; d++ {
		c.rev[d] ^= sobolSteps[d][ones]
	}
	c.index++
}

// draws writes the scrambled coordinates of the cursor's point into
// out[:len(out)] as raw draws: coordinate x·2⁻³² is the draw x<<32, whose
// Float64 is that coordinate and whose low 32 bits are zero.
func (s *Sobol) draws(c *sobolCursor, out []uint64) {
	for d := range out {
		out[d] = uint64(owenHash(c.rev[d], s.seeds[d])) << 32
	}
}
