//go:build purego || !amd64

package xrand

// Pure-Go dense draws: the reference loop is the implementation on every
// GOARCH without the vector kernel and on `purego` builds.

//gicnet:hotpath
func belowInto(s *Source, dst []uint64, words []BelowWord, thr []uint64, _ uint64) {
	s.belowIntoGo(dst, words, thr)
}

// cpuFeatures names the dense-draw kernel this binary runs, for test logs.
func cpuFeatures() string { return "generic" }
