//go:build purego || !amd64

package xrand

// Pure-Go dense draws: the reference loop is the implementation on every
// GOARCH without the vector kernel and on `purego` builds.

//gicnet:hotpath
func belowInto(s *Source, dst []uint64, words []BelowWord, thr []uint64, _ uint64) {
	s.belowIntoGo(dst, words, thr)
}

// intnIntoPow2 is IntnInto's power-of-two run: the scalar loop.
//
//gicnet:hotpath
func intnIntoPow2(s *Source, dst []int, n int) {
	for i := range dst {
		dst[i] = s.Intn(n)
	}
}

// cpuFeatures names the dense-draw kernel this binary runs, for test logs.
func cpuFeatures() string { return "generic" }
