package graph

// Bitset is a packed bit vector over dense indices (cable or edge IDs),
// one uint64 per 64 bits. It is the one dead-set representation of the
// repository, from the Monte Carlo kernel to the downstream analyses:
// clearing is a memclr, counting is word-level popcount, and "are all of
// these bits set" reduces to a word AND against a mask.
//
// Bits at indices >= the logical size must stay zero; every mutator in
// this package and in the failure kernel only touches valid indices, so
// Count and word-level scans never see stray bits.
type Bitset []uint64

// BitsetWords returns the number of words needed to hold n bits.
func BitsetWords(n int) int { return (n + 63) / 64 }

// NewBitset returns a zeroed bitset with capacity for n bits.
func NewBitset(n int) Bitset { return make(Bitset, BitsetWords(n)) }

// GrowBitset returns dst resized and cleared to hold n bits, reusing the
// backing array when it is large enough.
func GrowBitset(dst Bitset, n int) Bitset {
	w := BitsetWords(n)
	if cap(dst) < w {
		return make(Bitset, w)
	}
	dst = dst[:w]
	dst.Clear()
	return dst
}

// Get reports whether bit i is set.
//
//gicnet:hotpath
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
//
//gicnet:hotpath
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Unset clears bit i.
//
//gicnet:hotpath
func (b Bitset) Unset(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// SetRange sets every bit in [lo, hi), filling whole words where it can —
// the fast path for marking a dead cable's contiguous block of edge IDs.
//
//gicnet:hotpath
func (b Bitset) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if loW == hiW {
		b[loW] |= loMask & hiMask
		return
	}
	b[loW] |= loMask
	for w := loW + 1; w < hiW; w++ {
		b[w] = ^uint64(0)
	}
	b[hiW] |= hiMask
}

// Clear zeroes every word; the compiler lowers the loop to a memclr.
//
//gicnet:hotpath
func (b Bitset) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// CopyFrom overwrites b with src; both must have the same word length.
//
//gicnet:hotpath
func (b Bitset) CopyFrom(src Bitset) { copy(b, src) }
