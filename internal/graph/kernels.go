package graph

import "math/bits"

// This file is the architecture-independent face of the batched bitset
// kernels: the multi-word popcount that the Monte Carlo block evaluator
// (failure.Plan.EvaluateBatch) and the Bitset methods run on, and the
// 64×64 bit-matrix transpose that flips a trial block between its row and
// column layouts. They have three implementations selected at build time:
//
//   - kernels_amd64.go / kernels_amd64.s — AVX2 assembly for the popcount
//     (4 words per vector step, positional-nibble VPSHUFB popcount) and
//     AVX-512 assembly for the transpose, each chosen at runtime by CPUID
//     feature detection with the Go loops below as fallback;
//   - kernels_arm64.go / kernels_arm64.s — NEON assembly for the popcount
//     (VCNT byte popcount, 2 words per step; NEON is baseline on arm64, no
//     dispatch) and the Go transpose;
//   - kernels_generic.go — the pure-Go loops below, used on every other
//     GOARCH and whenever the build sets the `purego` tag.
//
// The Go loops in this file are the reference semantics: every assembly
// implementation must agree with them bit for bit on any input, which
// TestBitsetKernels and FuzzBitsetKernels enforce across adversarial
// tail-word shapes (lengths 0–257 bits), and TestTranspose64 and
// FuzzTranspose64 for the transpose.

// PopcountWords returns the number of set bits across every word of w.
// It is Bitset.Count for a raw word slice: block evaluation counts each
// trial's failed cables through it, so it dispatches to the widest
// popcount the CPU offers.
//
//gicnet:hotpath
func PopcountWords(w []uint64) int { return popcountWords(w) }

// Count returns the number of set bits.
//
//gicnet:hotpath
func (b Bitset) Count() int { return popcountWords(b) }

// popcountWordsGo is the unrolled scalar popcount: four independent
// OnesCount64 chains per iteration so the adds pipeline instead of
// serialising on one accumulator. It is the generic-build kernel and the
// short-slice / tail path of the assembly builds.
//
//gicnet:hotpath
func popcountWordsGo(w []uint64) int {
	n := 0
	i := 0
	for ; i+4 <= len(w); i += 4 {
		n += bits.OnesCount64(w[i]) + bits.OnesCount64(w[i+1]) +
			bits.OnesCount64(w[i+2]) + bits.OnesCount64(w[i+3])
	}
	for ; i < len(w); i++ {
		n += bits.OnesCount64(w[i])
	}
	return n
}

// Transpose64 transposes a 64×64 bit matrix in place: after the call, bit
// j of a[i] equals bit i of the original a[j] (bit positions count from
// the LSB). It is the pivot between the trial-block layouts: rows are
// per-trial dead-cable words, columns are per-cable trial masks, and the
// block evaluator flips between them once per word instead of once per
// (cable, trial) pair. It dispatches like the popcount: an AVX-512 kernel
// on amd64 hosts that pass cpuid.AVX512 (kernels_amd64.s), the Go
// butterfly below everywhere else.
//
//gicnet:hotpath
func Transpose64(a *[64]uint64) { transpose64(a) }

// transpose64Go is the branch-free butterfly exchange, log2(64) passes:
// pass j swaps the high j bits of each 2j-bit group of row k with the low
// j bits of row k+j, for every k with bit j clear. Each pass is written
// out with its stride and mask as constants, and the indices are masked
// to the array, so the compiler drops every bounds check. It is the
// fallback where the kernel cannot run and the reference the kernel is
// held to (TestTranspose64, FuzzTranspose64).
//
//gicnet:hotpath
func transpose64Go(a *[64]uint64) {
	for k := 0; k < 32; k++ {
		t := (a[k]>>32 ^ a[k+32]) & 0x00000000FFFFFFFF
		a[k] ^= t << 32
		a[k+32] ^= t
	}
	for k := 0; k < 64; k = (k + 17) &^ 16 {
		t := (a[k&63]>>16 ^ a[(k+16)&63]) & 0x0000FFFF0000FFFF
		a[k&63] ^= t << 16
		a[(k+16)&63] ^= t
	}
	for k := 0; k < 64; k = (k + 9) &^ 8 {
		t := (a[k&63]>>8 ^ a[(k+8)&63]) & 0x00FF00FF00FF00FF
		a[k&63] ^= t << 8
		a[(k+8)&63] ^= t
	}
	for k := 0; k < 64; k = (k + 5) &^ 4 {
		t := (a[k&63]>>4 ^ a[(k+4)&63]) & 0x0F0F0F0F0F0F0F0F
		a[k&63] ^= t << 4
		a[(k+4)&63] ^= t
	}
	for k := 0; k < 64; k += 4 {
		for i := k; i < k+2; i++ {
			t := (a[i&63]>>2 ^ a[(i+2)&63]) & 0x3333333333333333
			a[i&63] ^= t << 2
			a[(i+2)&63] ^= t
		}
	}
	for k := 0; k < 64; k += 2 {
		t := (a[k&63]>>1 ^ a[(k+1)&63]) & 0x5555555555555555
		a[k&63] ^= t << 1
		a[(k+1)&63] ^= t
	}
}

// CPUFeatures names the bitset-kernel flavour this binary runs:
// "avx2" (amd64 with runtime AVX2 support), "neon" (arm64), or "generic"
// (the pure-Go loops: `purego` builds, other GOARCHes, or amd64 CPUs
// without AVX2). Benchmark snapshots record it so performance gates are
// never compared across incompatible kernel flavours.
func CPUFeatures() string { return cpuFeatures() }
