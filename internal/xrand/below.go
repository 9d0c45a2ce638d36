package xrand

import "math/bits"

// This file is the dense Bernoulli draw loop behind the failure sampler:
// one Below draw per decided bit of a bitset, many bits per call. It and
// IntnInto's power-of-two run have two implementations each, selected at
// build time and, on amd64, at init:
//
//   - below_amd64.go / below_amd64.s — AVX-512 kernels that compute
//     eight draws per instruction in ZMM registers. The dense kernel
//     compares them unsigned against their thresholds into a mask
//     register and deposits each word's decisions with one BMI2 PDEP;
//     the index kernel keeps each draw's top bits. They run when CPUID
//     and XGETBV report AVX-512F and DQ, BMI2 and the OS-saved opmask
//     and upper vector state;
//   - belowIntoGo below and the Intn loop — the scalar reference loops,
//     used on every other host and GOARCH and whenever the build sets
//     the `purego` tag.
//
// The kernel is exact because SplitMix64 is counter-based: draw k after
// state s is mix(s + (k+1)·golden), a pure function of its index, so the
// kernel computes every draw independently, decides it with the same
// unsigned compare Below's borrow makes, and leaves the stream at
// s + n·golden, exactly where n Below calls leave it. FuzzBelowInto holds
// the kernel to the Go loop bit for bit, stream state included.

// BelowWord is one destination word of a BelowInto layout.
type BelowWord struct {
	Mask uint64 // the word's decided bits; the lowest takes the first draw
	Word uint32 // index of the word in the destination
	Off  uint32 // draw index of Mask's lowest bit: the bits of earlier words
}

// BelowPad is the number of zero thresholds a BelowInto layout carries
// past its last bit. The vector kernel decides eight bits per step and
// reads its last step whole; a zero threshold decides nothing (no draw is
// below 0), and padding never advances the stream.
const BelowPad = 8

// BelowInto makes one Below draw per set bit of the layout — words in
// order, each word's bits from lowest to highest — and ORs every decision
// into its bit of dst: bit b of dst[w.Word] is set when draw w.Off+j falls
// below thr[w.Off+j], b being w.Mask's j-th lowest set bit. It decides
// every bit as Below does and leaves the stream where that many Below
// calls leave it.
//
// The layout lists words by strictly ascending Word; the first word's
// Off is 0 and each later Off counts the set bits of the words before it;
// thr holds one threshold per bit followed by BelowPad zeros. Only the
// last word is bounds-checked: the layout's order carries the check to
// the rest. Bits of dst outside the masks are left alone.
//
//gicnet:hotpath
func (s *Source) BelowInto(dst []uint64, words []BelowWord, thr []uint64) {
	if len(words) == 0 {
		return
	}
	last := words[len(words)-1]
	n := uint64(last.Off) + uint64(bits.OnesCount64(last.Mask))
	_ = dst[last.Word]
	_ = thr[n+BelowPad-1]
	belowInto(s, dst, words, thr, n)
}

// belowIntoGo is BelowInto's reference loop: Below per bit, the word's
// decisions gathered in a register and stored once. It is the fallback on
// hosts without the vector kernel and the semantics the kernel is held to.
//
//gicnet:hotpath
func (s *Source) belowIntoGo(dst []uint64, words []BelowWord, thr []uint64) {
	for _, w := range words {
		k := w.Off
		var dead uint64
		for m := w.Mask; m != 0; m &= m - 1 {
			dead |= s.Below(thr[k]) << uint(bits.TrailingZeros64(m))
			k++
		}
		dst[w.Word] |= dead
	}
}
