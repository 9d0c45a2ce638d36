package xrand

import (
	"math"
	"testing"
)

// checkIntnInto runs IntnInto (the kernel where the host has it, for a
// power-of-two bound) and the scalar Intn loop on copies of one stream,
// and requires the same values and the same final stream state.
func checkIntnInto(t *testing.T, s Source, length, n int) {
	t.Helper()
	got := make([]int, length)
	want := make([]int, length)
	sk, ss := s, s
	sk.IntnInto(got, n)
	for i := range want {
		want[i] = ss.Intn(n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IntnInto(%d draws, n=%d, %s) from state %#x: draw %d is %d, Intn gives %d",
				length, n, cpuFeatures(), s.state, i, got[i], want[i])
		}
	}
	if sk != ss {
		t.Fatalf("IntnInto(%d draws, n=%d, %s) from state %#x leaves the state at %#x, Intn at %#x",
			length, n, cpuFeatures(), s.state, sk.state, ss.state)
	}
}

// intnBounds are the bounds the bootstrap and the edges of Lemire's
// method meet: every power of two up to 2^62 (never a rejection; past
// 2^31 the index takes bits that SplitMix64's last xorshift changes),
// their neighbours, and bounds whose rejection zone is wide.
func intnBounds() []int {
	out := []int{3, 5, 7, 1000, 4095, 4097, 8191, 8193, 1<<31 - 1, 1<<30 + 1, 3 << 29, 1<<62 + 1}
	for k := 0; k <= 62; k++ {
		out = append(out, 1<<k)
	}
	return out
}

// TestIntnIntoMatchesScalar holds IntnInto to the scalar loop on every
// length from 0 to 40, so every remainder modulo the vector width ends a
// run, for each bound, and at the bootstrap's working sizes.
func TestIntnIntoMatchesScalar(t *testing.T) {
	t.Logf("bootstrap-index kernel flavour: %s", cpuFeatures())
	root := New(0x696e746e)
	for _, n := range intnBounds() {
		for length := 0; length <= 40; length++ {
			checkIntnInto(t, root.SplitAt(uint64(n)<<8|uint64(length)), length, n)
		}
		for _, length := range []int{4096, 8192, 8195} {
			checkIntnInto(t, root.SplitAt(uint64(n)), length, n)
		}
	}
	// The counter wraps: a state just below 2^64 must carry in every lane.
	g := uint64(golden)
	for _, state := range []uint64{math.MaxUint64, 0 - 3*g, 1 << 63} {
		checkIntnInto(t, Source{state: state}, 64, 8192)
	}
}

// TestIntnIntoRefusesBadBound pins the Intn panic contract.
func TestIntnIntoRefusesBadBound(t *testing.T) {
	for _, n := range []int{0, -1, math.MinInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IntnInto with n=%d did not panic", n)
				}
			}()
			var s Source
			s.IntnInto(make([]int, 8), n)
		}()
	}
}

// TestIntnIntoAllocatesNothing pins the bootstrap loop's allocation count.
func TestIntnIntoAllocatesNothing(t *testing.T) {
	dst := make([]int, 8192)
	s := New(2)
	if a := testing.AllocsPerRun(20, func() { s.IntnInto(dst, 8192) }); a != 0 {
		t.Fatalf("IntnInto allocates %v times per call", a)
	}
}

// TestNextMatchesUint64 pins the by-value step to the pointer one.
func TestNextMatchesUint64(t *testing.T) {
	a := New(0x6e657874)
	b := *a
	for i := 0; i < 1000; i++ {
		var z uint64
		z, b = b.Next()
		if want := a.Uint64(); z != want || b != *a {
			t.Fatalf("draw %d: Next gives %#x (state %#x), Uint64 %#x (state %#x)", i, z, b.state, want, a.state)
		}
	}
}

// FuzzIntnInto is TestIntnIntoMatchesScalar on fuzzer-chosen lengths,
// bounds and states: lengths from 0 past a few vector steps, and bounds
// folded onto a power of two up to 2^62 or any value up to 2^31.
func FuzzIntnInto(f *testing.F) {
	f.Add(uint64(0), 0, 1, false)
	f.Add(uint64(1), 7, 13, true)
	f.Add(uint64(2), 8, 13, true)
	f.Add(uint64(3), 200, 8192, false)
	f.Add(uint64(math.MaxUint64), 65, 31, true)
	f.Add(uint64(1)<<63, 9, 1<<31-1, false)
	f.Fuzz(func(t *testing.T, state uint64, length, n int, pow2 bool) {
		length = (length%300 + 300) % 300
		n = (n%(1<<31) + 1<<31) % (1 << 31)
		if pow2 {
			n = 1 << (n % 63)
		}
		if n == 0 {
			n = 1
		}
		checkIntnInto(t, Source{state: state}, length, n)
	})
}
