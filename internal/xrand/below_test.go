package xrand

import (
	"math"
	"testing"
)

// belowLayout lays bits (ascending bit positions) out as BelowInto
// expects, thresholds padded with BelowPad zeros.
func belowLayout(positions []int, thrs []uint64) (words []BelowWord, thr []uint64) {
	for k, b := range positions {
		w := uint32(b >> 6)
		if len(words) == 0 || words[len(words)-1].Word != w {
			words = append(words, BelowWord{Word: w, Off: uint32(k)})
		}
		words[len(words)-1].Mask |= 1 << (uint(b) & 63)
	}
	thr = append(append([]uint64(nil), thrs...), make([]uint64, BelowPad)...)
	return words, thr
}

// belowScalar is the dense loop as the failure sampler ran it before the
// layout existed: one Below per bit, ORed straight into the bit's word.
func belowScalar(s *Source, dst []uint64, positions []int, thr []uint64) {
	for k, b := range positions {
		dst[b>>6] |= s.Below(thr[k]) << (uint(b) & 63)
	}
}

// checkBelow runs BelowInto (the kernel where the host has it), the Go
// loop and the scalar loop on copies of one stream and one destination,
// and requires the same destination and final stream state from all three.
func checkBelow(t *testing.T, s Source, dst []uint64, positions []int, thrs []uint64) {
	t.Helper()
	words, thr := belowLayout(positions, thrs)
	var got, goLoop, want []uint64
	got = append(got, dst...)
	goLoop = append(goLoop, dst...)
	want = append(want, dst...)
	sk, sg, ss := s, s, s
	sk.BelowInto(got, words, thr)
	sg.belowIntoGo(goLoop, words, thr)
	belowScalar(&ss, want, positions, thrs)
	for wi := range want {
		if got[wi] != want[wi] || goLoop[wi] != want[wi] {
			t.Fatalf("%d bits over %d words: word %d is %#x (BelowInto, %s) and %#x (Go loop), want %#x",
				len(positions), len(words), wi, got[wi], cpuFeatures(), goLoop[wi], want[wi])
		}
	}
	if sk != ss || sg != ss {
		t.Fatalf("%d bits: stream state %#x (BelowInto, %s) and %#x (Go loop), want %#x",
			len(positions), sk.state, cpuFeatures(), sg.state, ss.state)
	}
}

// belowEdges are the thresholds where a vector compare could decide
// differently from Below's borrow: the smallest real threshold, both
// sides of the sign bit (a signed compare flips them), the top of the
// range, and the values no draw or every draw passes.
var belowEdges = []uint64{
	0, 1 << 11, 1<<63 - 1<<11, 1<<63 - 1, 1 << 63, 1<<63 + 1<<11,
	math.MaxUint64 - 1<<11, math.MaxUint64,
}

// belowCase builds a layout of n bits from seed. shape picks how the bits
// fill their words: scattered over a few words each, one bit per word,
// whole 64-bit words, or runs of random length; thresholds mix the edges,
// uniform draws and Threshold(p) values.
func belowCase(seed uint64, n int, shape uint8) (dst []uint64, positions []int, thrs []uint64) {
	rng := New(seed)
	b := 0
	for len(positions) < n {
		switch shape % 4 {
		case 0: // scattered: about a third of the bits of each word
			if rng.Intn(3) == 0 {
				positions = append(positions, b)
			}
			b++
		case 1: // one bit per word
			positions = append(positions, b<<6|rng.Intn(64))
			b++
		case 2: // whole words
			positions = append(positions, b)
			b++
		default: // runs of 1 to 64 bits, a random gap after each
			run := 1 + rng.Intn(64)
			for i := 0; i < run && len(positions) < n; i++ {
				positions = append(positions, b)
				b++
			}
			b += rng.Intn(130)
		}
	}
	thrs = make([]uint64, n)
	for k := range thrs {
		switch rng.Intn(3) {
		case 0:
			thrs[k] = belowEdges[rng.Intn(len(belowEdges))]
		case 1:
			thrs[k] = rng.Uint64()
		default:
			thrs[k] = Threshold(rng.Float64())
		}
	}
	words := 1
	if n > 0 {
		words = positions[n-1]>>6 + 1 + rng.Intn(2)
	}
	dst = make([]uint64, words)
	for i := range dst {
		dst[i] = rng.Uint64() & rng.Uint64() // bits already set stay set
	}
	return dst, positions, thrs
}

// unmixState inverts SplitMix64's output function: the state after which
// the next draw is z.
func unmixState(z uint64) uint64 {
	inverse := func(a uint64) uint64 { // multiplicative inverse of odd a mod 2^64
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z ^= z>>31 ^ z>>62
	z *= inverse(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inverse(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z - golden
}

// onThreshold returns streams whose draw k lands exactly on thrs[k],
// which Below's strict compare rejects, and one below it, which it
// accepts, for the first, last and a middle bit.
func onThreshold(thrs []uint64) []Source {
	var out []Source
	if len(thrs) == 0 {
		return nil
	}
	for _, k := range []int{0, len(thrs) / 2, len(thrs) - 1} {
		if thrs[k] == 0 {
			continue
		}
		for _, z := range []uint64{thrs[k], thrs[k] - 1} {
			out = append(out, Source{state: unmixState(z) - uint64(k)*golden})
		}
	}
	return out
}

// TestBelowIntoMatchesScalar holds BelowInto to the per-bit loop on every
// bit count from 0 to 300, so every remainder modulo the vector width
// ends a layout, in each word shape, on split streams and on streams that
// put a draw exactly on its threshold.
func TestBelowIntoMatchesScalar(t *testing.T) {
	t.Logf("dense-draw kernel flavour: %s", cpuFeatures())
	root := New(0x62656c6f77)
	for n := 0; n <= 300; n++ {
		for shape := uint8(0); shape < 4; shape++ {
			dst, positions, thrs := belowCase(uint64(n)<<2|uint64(shape), n, shape)
			checkBelow(t, root.SplitAt(uint64(n)<<2|uint64(shape)), dst, positions, thrs)
			for _, s := range onThreshold(thrs) {
				checkBelow(t, s, dst, positions, thrs)
			}
		}
	}
}

// TestOnThresholdStreams pins the crafted streams: draw k is the target.
func TestOnThresholdStreams(t *testing.T) {
	thrs := []uint64{5, 1 << 63, math.MaxUint64 - 1<<11, 1 << 11, 77}
	for _, s := range onThreshold(thrs) {
		probe := s
		var seen []uint64
		for range thrs {
			seen = append(seen, probe.Uint64())
		}
		hit := false
		for k, z := range seen {
			hit = hit || z == thrs[k] || z == thrs[k]-1
		}
		if !hit {
			t.Fatalf("stream %#x puts no draw on or just below its threshold: %#x", s.state, seen)
		}
	}
}

// TestCounterProperty pins what the vector kernel relies on: n draws
// advance the state by exactly n increments, whatever the draws were.
func TestCounterProperty(t *testing.T) {
	for _, n := range []uint64{0, 1, 8, 1 << 20} {
		s := New(0x636f756e746572 + n)
		want := s.state + n*golden
		for i := uint64(0); i < n; i++ {
			s.Uint64()
		}
		if s.state != want {
			t.Errorf("after %d draws the state is %#x, want s + n·golden = %#x", n, s.state, want)
		}
	}
}

// TestBelowIntoGuards checks the two bounds BelowInto enforces before
// handing the layout on: the last word inside dst, and the padding.
func TestBelowIntoGuards(t *testing.T) {
	words, thr := belowLayout([]int{3, 70, 200}, []uint64{1, 2, 3})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: BelowInto did not panic", name)
			}
		}()
		f()
	}
	var s Source
	mustPanic("short destination", func() { s.BelowInto(make([]uint64, 3), words, thr) })
	mustPanic("unpadded thresholds", func() { s.BelowInto(make([]uint64, 4), words, thr[:len(thr)-1]) })
	s.BelowInto(make([]uint64, 4), words, thr)
	if g := uint64(golden); s.state != 3*g {
		t.Errorf("three bits left the state at %#x, want %#x", s.state, 3*g)
	}
}

// TestBelowIntoAllocatesNothing pins the hot loop's allocation count.
func TestBelowIntoAllocatesNothing(t *testing.T) {
	dst, positions, thrs := belowCase(9, 300, 3)
	words, thr := belowLayout(positions, thrs)
	s := New(1)
	if a := testing.AllocsPerRun(100, func() { s.BelowInto(dst, words, thr) }); a != 0 {
		t.Fatalf("BelowInto allocates %v times per call", a)
	}
}

// FuzzBelowInto is TestBelowIntoMatchesScalar on fuzzer-chosen layouts
// and streams.
func FuzzBelowInto(f *testing.F) {
	for shape := uint8(0); shape < 4; shape++ {
		f.Add(uint64(shape), 1, shape, uint64(0))
		f.Add(uint64(shape)+7, 64, shape, uint64(1)<<63)
		f.Add(uint64(shape)+11, 299, shape, uint64(math.MaxUint64))
	}
	f.Fuzz(func(t *testing.T, seed uint64, n int, shape uint8, state uint64) {
		n = (n%301 + 301) % 301
		dst, positions, thrs := belowCase(seed, n, shape)
		checkBelow(t, Source{state: state}, dst, positions, thrs)
		for _, s := range onThreshold(thrs) {
			checkBelow(t, s, dst, positions, thrs)
		}
	})
}
