package xrand

// BelowIntoGo exposes the Go loop to the kernel benchmarks, which live in
// the external test package so they can compile real failure plans.
func (s *Source) BelowIntoGo(dst []uint64, words []BelowWord, thr []uint64) {
	s.belowIntoGo(dst, words, thr)
}
