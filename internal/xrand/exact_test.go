package xrand

import (
	"math"
	"testing"
)

// mul64 is the portable 128-bit product Intn used before math/bits: the
// reference the bits.Mul64 form is pinned to.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// intnRef is Intn over the reference product.
func intnRef(s *Source, n int) (v int, rejected int) {
	bound := uint64(n)
	for {
		hi, lo := mul64(s.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi), rejected
		}
		rejected++
	}
}

// TestIntnMatchesReference pins Intn draw for draw to the reference
// product over small, power-of-two and large non-power-of-two bounds. The
// large ones (2^62+1, 3·2^61+7, 2^64/3+1) reject a quarter to a third of
// all draws, so the rejection loop's consumption is pinned with the values.
func TestIntnMatchesReference(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 1000, 1 << 20, 1<<20 + 1, 8192, 12345,
		1<<62 + 1, 3<<61 + 7, 1<<64/3 + 1, 1<<63 - 1}
	rejected := 0
	for _, n := range bounds {
		a, b := New(uint64(n)^0x5eed), New(uint64(n)^0x5eed)
		for i := 0; i < 20000; i++ {
			got := a.Intn(n)
			want, r := intnRef(b, n)
			rejected += r
			if got != want {
				t.Fatalf("Intn(%d) draw %d = %d, reference %d", n, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("Intn(%d): stream state diverged from the reference", n)
		}
	}
	if rejected == 0 {
		t.Fatal("no bound exercised the rejection loop")
	}
}

// thresholdEdges are probabilities at the ends of the float64 range and at
// the rounding boundaries of the 53-bit draw grid.
func thresholdEdges() []float64 {
	ps := []float64{
		1 - 0x1p-53, 1 - 0x1p-40, 0.5, 0.25, 1e-300, 5e-324, 0x1p-1074 * 1000,
		0x1p-1022, 0x1p-53, 0x1p-54, 0.1, 0.2, 1.0 / 3, 0.001, 0.999,
	}
	for e := 1; e <= 64; e++ {
		p := math.Ldexp(1, -e)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	return ps
}

// TestThresholdBoundaryDraws checks the defining property on the two draws
// that decide it: the last 53-bit draw Float64 accepts is below the
// threshold and the first one it rejects is not.
func TestThresholdBoundaryDraws(t *testing.T) {
	for _, p := range thresholdEdges() {
		th := Threshold(p)
		if th&(1<<11-1) != 0 {
			t.Fatalf("Threshold(%v) = %#x has low bits set", p, th)
		}
		n := th >> 11 // first rejected 53-bit draw
		if n == 0 || n >= 1<<53 {
			t.Fatalf("Threshold(%v) = %#x outside the draw grid", p, th)
		}
		if !(float64(n-1)/(1<<53) < p) {
			t.Fatalf("p=%v: draw %d rejected by Float64 but below the threshold", p, n-1)
		}
		if float64(n)/(1<<53) < p {
			t.Fatalf("p=%v: draw %d accepted by Float64 but not below the threshold", p, n)
		}
	}
	if Threshold(0) != 0 || Threshold(-1) != 0 || Threshold(math.NaN()) != 0 {
		t.Fatal("Threshold of an impossible event must be 0")
	}
	if Threshold(1) != math.MaxUint64 || Threshold(2) != math.MaxUint64 {
		t.Fatal("Threshold of a certain event must be MaxUint64")
	}
}

// TestBelowMatchesFloat64 runs Below and the float compare on twin streams.
func TestBelowMatchesFloat64(t *testing.T) {
	ps := thresholdEdges()
	a, b := New(77), New(77)
	for i := 0; i < 200000; i++ {
		p := ps[i%len(ps)]
		got := a.Below(Threshold(p)) == 1
		if want := b.Float64() < p; got != want {
			t.Fatalf("draw %d, p=%v: Below %v, Float64 %v", i, p, got, want)
		}
	}
	if *a != *b {
		t.Fatal("Below and Float64 consumed different draws")
	}
}
