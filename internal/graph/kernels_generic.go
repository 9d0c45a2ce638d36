//go:build purego || (!amd64 && !arm64)

package graph

// Pure-Go kernel selection: the reference loops from kernels.go are the
// implementation. This file is chosen on every GOARCH without a
// dedicated assembly backend and on any build carrying the `purego` escape
// tag, which exists so the whole engine can be built and differentially
// tested with zero assembly in play (`go test -tags purego ./...`).

//gicnet:hotpath
func popcountWords(w []uint64) int { return popcountWordsGo(w) }

//gicnet:hotpath
func transpose64(a *[64]uint64) { transpose64Go(a) }

// transposeFlavour names the transpose this binary runs, for test logs.
func transposeFlavour() string { return "generic" }

func cpuFeatures() string { return "generic" }
