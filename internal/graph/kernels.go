package graph

import "math/bits"

// This file is the architecture-independent face of the batched bitset
// kernels: the multi-word popcount that the Monte Carlo block evaluator
// (failure.Plan.EvaluateBatch) and the Bitset methods run on. It has three
// implementations selected at build time:
//
//   - kernels_amd64.go / kernels_amd64.s — AVX2 assembly (4 words per
//     vector step, positional-nibble VPSHUFB popcount), chosen at runtime
//     by CPUID feature detection with the unrolled Go loop as fallback;
//   - kernels_arm64.go / kernels_arm64.s — NEON assembly (VCNT byte
//     popcount, 2 words per step; NEON is baseline on arm64, no dispatch);
//   - kernels_generic.go — the unrolled pure-Go loops below, used on every
//     other GOARCH and whenever the build sets the `purego` tag.
//
// The Go loop in this file is the reference semantics: every assembly
// implementation must agree with it bit for bit on any input, which
// TestBitsetKernels and FuzzBitsetKernels enforce across adversarial
// tail-word shapes (lengths 0–257 bits).

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
// (cable, trial) pair. Branch-free butterfly exchange, log2(64) passes.
//
//gicnet:hotpath
func Transpose64(a *[64]uint64) {
	j := uint(32)
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
		j >>= 1
		m ^= m << j
	}
}

// CPUFeatures names the bitset-kernel flavour this binary runs:
// "avx2" (amd64 with runtime AVX2 support), "neon" (arm64), or "generic"
// (the pure-Go loops: `purego` builds, other GOARCHes, or amd64 CPUs
// without AVX2). Benchmark snapshots record it so performance gates are
// never compared across incompatible kernel flavours.
func CPUFeatures() string { return cpuFeatures() }
