//go:build amd64 && !purego

package graph

import "gicnet/internal/cpuid"

// amd64 kernel dispatch. AVX2 (the positional-nibble VPSHUFB popcount in
// kernels_amd64.s, 4 words per vector step) is selected once at init by
// CPUID/XGETBV feature detection — the instruction set must be present AND
// the OS must save the YMM state — and only engaged past a few vector
// widths, where it clearly beats the scalar POPCNT chain; short masks take
// the unrolled Go path with no dispatch cost beyond one predictable branch.
// The transpose runs its AVX-512 kernel (kernels_amd64.s) on hosts that
// pass the module's AVX-512 gate, cpuid.AVX512, and the Go butterfly on
// the rest.

// avx2MinWords is the slice length (in words) below which the unrolled Go
// loop wins: the vector routine pays a constant setup (LUT loads,
// VZEROUPPER) that only amortises across at least two 4-word steps.
const avx2MinWords = 8

var (
	hasAVX2   = detectAVX2()
	hasAVX512 = cpuid.AVX512()
)

//gicnet:hotpath
func popcountWords(w []uint64) int {
	if hasAVX2 && len(w) >= avx2MinWords {
		return popcountWordsAVX2(w)
	}
	return popcountWordsGo(w)
}

//gicnet:hotpath
func transpose64(a *[64]uint64) {
	if hasAVX512 {
		transpose64AVX512(a)
		return
	}
	transpose64Go(a)
}

// transposeFlavour names the transpose this binary runs, for test logs.
// CPUFeatures leaves it out: benchmark snapshots key on that string.
func transposeFlavour() string {
	if hasAVX512 {
		return "avx512"
	}
	return "generic"
}

func cpuFeatures() string {
	if hasAVX2 {
		return "avx2"
	}
	return "generic"
}

// detectAVX2 is the standard AVX2 gate: CPUID leaf 7 advertises the
// instructions, CPUID leaf 1 advertises AVX+OSXSAVE, and XGETBV confirms
// the OS preserves the XMM and YMM register halves across context
// switches. Every check must pass or the vector routines would fault (or
// silently lose state) at runtime.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid.Query(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid.Query(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	xcr0, _ := cpuid.XCR0()
	const xmmAndYMMState = 1<<1 | 1<<2
	if xcr0&xmmAndYMMState != xmmAndYMMState {
		return false
	}
	_, ebx7, _, _ := cpuid.Query(7, 0)
	return ebx7&(1<<5) != 0
}

// Assembly-backed declarations (kernels_amd64.s). The vector routine
// accepts any slice length: full 4-word steps run through AVX2 and the
// remainder through a scalar POPCNT tail.

//go:noescape
func popcountWordsAVX2(w []uint64) int

// transpose64AVX512 is Transpose64 in ZMM registers (kernels_amd64.s).
//
//go:noescape
func transpose64AVX512(a *[64]uint64)
