package failure

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// maxTableExp is the deepest envelope with a skip table. Envelopes 2^-2 to
// 2^-8 take 99% of the skip draws of a figure pass; deeper buckets draw
// rarely (their skips are long) and keep the math.Log step.
const maxTableExp = 8

// envelope returns bucket e's envelope pmax = 2^-e and the factor
// 1/log1p(-pmax) that turns a uniform draw u into the geometric skip
// skipOf(u, invLogq).
func envelope(e int) (pmax, invLogq float64) {
	pmax = math.Ldexp(1, -e)
	return pmax, 1 / math.Log1p(-pmax)
}

// skipOf is the geometric skip of a uniform draw u in (0,1) under envelope
// pmax: the next candidate of a Bernoulli(pmax) scan is floor(skipOf)
// positions ahead. It is the single expression the float sampler, the
// fallback beyond the tables and the table build all evaluate, so the
// tables reproduce it exactly.
//
//gicnet:hotpath
func skipOf(u, invLogq float64) float64 { return math.Log(u) * invLogq }

// skipTable is skipOf tabulated over the 53-bit draw grid for one
// envelope. The skip K(m) = floor(skipOf(m·2^-53)) is a non-increasing
// step function of the draw m, so the whole function is its breakpoints:
// bps[i] ascending, with K(m) = n - #{i : bps[i] <= m} for every draw
// m >= 1. A cell index (m's bit length and its k bits after the leading
// one) narrows each draw to at most two candidate breakpoints.
//
// Tables are built once per process, on the first compile that needs the
// envelope, and are immutable and shared by every plan after that.
type skipTable struct {
	k    int      // mantissa bits in a cell index: the envelope exponent
	n    int      // breakpoint count, K(1): the longest finite skip
	rank []uint16 // per cell: breakpoints at or below the cell's first draw
	bps  []uint64 // ascending breakpoints, then two sentinels above every draw
}

// skip returns K(m) for a draw m in [1, 2^53): the cell's rank plus two
// borrow compares against the next two breakpoints, all integer work.
//
//gicnet:hotpath
func (t *skipTable) skip(m uint64) int {
	shift := bits.Len64(m) - 1 - t.k
	if shift < 0 {
		shift = 0 // short draws: one cell per draw
	}
	r := int(t.rank[shift<<t.k+int(m>>uint(shift))])
	_, below0 := bits.Sub64(m, t.bps[r], 0)
	_, below1 := bits.Sub64(m, t.bps[r+1], 0)
	return t.n - r - 2 + int(below0+below1)
}

// skipTableSet holds the lazily built table of every tabulated envelope.
type skipTableSet struct {
	once [maxTableExp + 1]sync.Once
	tab  [maxTableExp + 1]*skipTable
}

// skipTables is the process-wide table set. Plans keep the pointer they
// got at compile time, so the trial loop never reads this variable.
var skipTables = new(skipTableSet)

// get returns envelope e's table, building it on first use, or nil when e
// is beyond maxTableExp.
func (s *skipTableSet) get(e int) *skipTable {
	if e > maxTableExp {
		return nil
	}
	s.once[e].Do(func() { s.tab[e] = buildSkipTable(e) })
	return s.tab[e]
}

// skipOfDraw is K(m) evaluated through skipOf, as the float sampler does.
func skipOfDraw(m uint64, invLogq float64) int {
	return int(skipOf(float64(m)/(1<<53), invLogq))
}

// skipReaches reports K(m) >= j, compared in float space, where a deep
// envelope's skip can exceed int range: floor(x) >= j exactly when x >= j.
func skipReaches(m uint64, invLogq float64, j int) bool {
	return skipOf(float64(m)/(1<<53), invLogq) >= float64(j)
}

// breakpoint returns breakpoint j of an envelope, the first draw m in
// [1, 2^53] whose skip K(m) is below j. It is seeded from the closed form
// 2^53·(1-pmax)^j and settled against skipOf itself, so it is math.Log's
// own step: the closed form lands within a few draws of it, and the
// settle walk needs only a few evaluations. 2^53, past every draw, means
// that no draw's skip is below j.
func breakpoint(j int, pmax, invLogq float64) uint64 {
	b := uint64(math.Ldexp(math.Pow(1-pmax, float64(j)), 53))
	if b < 1 {
		b = 1
	}
	if b > 1<<53-1 {
		b = 1<<53 - 1
	}
	for skipReaches(b, invLogq, j) {
		b++
	}
	for b > 1 && !skipReaches(b-1, invLogq, j) {
		b--
	}
	return b
}

// firstBreakpoint returns the breakpoint of a group of length cables
// under envelope e: the first draw whose skip lands inside the group. A
// first draw below it ends the group with no candidate. The tabulated
// envelopes read it off their table; a group longer than every finite
// skip (K(1) < length) is entered by every draw but 0.
func firstBreakpoint(e, length int) uint64 {
	if t := skipTables.get(e); t != nil {
		if length > t.n {
			return 1
		}
		return t.bps[t.n-length]
	}
	pmax, invLogq := envelope(e)
	return breakpoint(length, pmax, invLogq)
}

// buildSkipTable tabulates envelope e, breakpoint by breakpoint.
func buildSkipTable(e int) *skipTable {
	pmax, invLogq := envelope(e)
	n := skipOfDraw(1, invLogq)
	t := &skipTable{k: e, n: n, bps: make([]uint64, n+2)}
	for j := 1; j <= n; j++ {
		t.bps[n-j] = breakpoint(j, pmax, invLogq)
	}
	t.bps[n], t.bps[n+1] = 1<<53, 1<<53

	cells := (54 - e) << e
	if n+2 > math.MaxUint16 {
		panic(fmt.Sprintf("failure: skip table 2^-%d has %d breakpoints, beyond uint16 ranks", e, n))
	}
	t.rank = make([]uint16, cells)
	r := 0
	for c := 0; c < cells; c++ {
		lo, hi := cellDraws(c, e)
		for r < n && t.bps[r] <= lo {
			r++
		}
		t.rank[c] = uint16(r)
		inside := 0
		for r+inside < n && t.bps[r+inside] <= hi {
			inside++
		}
		if inside > 2 {
			panic(fmt.Sprintf("failure: skip table 2^-%d cell %d holds %d breakpoints", e, c, inside))
		}
	}
	return t
}

// cellDraws returns the first and last draw of cell c at resolution k: the
// inverse of skip's cell index.
func cellDraws(c, k int) (lo, hi uint64) {
	if c < 2<<k {
		return uint64(c), uint64(c)
	}
	shift := c>>k - 1
	top := uint64(c - shift<<k)
	return top << shift, (top+1)<<shift - 1
}
