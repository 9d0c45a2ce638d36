//go:build purego || (!amd64 && !arm64)

package graph

// Pure-Go kernel selection: the unrolled reference loop from kernels.go
// is the implementation. This file is chosen on every GOARCH without a
// dedicated assembly backend and on any build carrying the `purego` escape
// tag, which exists so the whole engine can be built and differentially
// tested with zero assembly in play (`go test -tags purego ./...`).

//gicnet:hotpath
func popcountWords(w []uint64) int { return popcountWordsGo(w) }

func cpuFeatures() string { return "generic" }
