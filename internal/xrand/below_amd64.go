//go:build amd64 && !purego

package xrand

import (
	"math/bits"

	"gicnet/internal/cpuid"
)

// useAVX512 selects the vector kernels (below_amd64.s). It is set once at
// init from the module's AVX-512 gate (cpuid.AVX512), which the transpose
// kernel in internal/graph reads too.
var useAVX512 = cpuid.AVX512()

// belowInto runs the vector kernel when the host has it, and advances the
// stream past the layout's n bits itself: the kernel only reads the state.
//
//gicnet:hotpath
func belowInto(s *Source, dst []uint64, words []BelowWord, thr []uint64, n uint64) {
	if useAVX512 {
		belowIntoAVX512(dst, words, thr, s.state, n)
		s.state += n * golden
		return
	}
	s.belowIntoGo(dst, words, thr)
}

// intnIntoPow2 is IntnInto for a power-of-two n and a multiple of eight
// draws: the vector kernel where the host has it, which advances nothing,
// so the stream is moved past the draws here; the scalar loop otherwise.
//
//gicnet:hotpath
func intnIntoPow2(s *Source, dst []int, n int) {
	if useAVX512 {
		intnIntoAVX512(dst, s.state, 64-uint64(bits.TrailingZeros64(uint64(n))))
		s.state += uint64(len(dst)) * golden
		return
	}
	for i := range dst {
		dst[i] = s.Intn(n)
	}
}

// cpuFeatures names the dense-draw kernel this binary runs, for test logs.
func cpuFeatures() string {
	if useAVX512 {
		return "avx512"
	}
	return "generic"
}

// belowIntoAVX512 is BelowInto's loop over the layout's n draws, drawing
// from state without advancing it (below_amd64.s).
//
//go:noescape
func belowIntoAVX512(dst []uint64, words []BelowWord, thr []uint64, state, n uint64)

// intnIntoAVX512 writes the top 64-shift bits of the len(dst) draws after
// state into dst, eight per step, without advancing the state
// (below_amd64.s). len(dst) must be a multiple of eight.
//
//go:noescape
func intnIntoAVX512(dst []int, state, shift uint64)
