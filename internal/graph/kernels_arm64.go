//go:build arm64 && !purego

package graph

// arm64 kernel selection. NEON (Advanced SIMD) is architecturally baseline
// on arm64, so there is no runtime feature probe: the assembly routines in
// kernels_arm64.s are called directly. VCNT counts bits per byte across a
// full 128-bit vector and VUADDLV folds the lanes, giving 2 words per step
// with no lookup table.

//gicnet:hotpath
func popcountWords(w []uint64) int {
	if len(w) >= 2 {
		return popcountWordsNEON(w)
	}
	return popcountWordsGo(w)
}

//gicnet:hotpath
func transpose64(a *[64]uint64) { transpose64Go(a) }

// transposeFlavour names the transpose this binary runs, for test logs.
func transposeFlavour() string { return "generic" }

func cpuFeatures() string { return "neon" }

// Assembly-backed declaration (kernels_arm64.s). An odd trailing word
// falls through to a scalar tail inside the routine.

//go:noescape
func popcountWordsNEON(w []uint64) int
