package graph

import (
	"bytes"
	"testing"
)

// The kernel tests are differential: the popcount is compared against a
// deliberately naive per-bit loop on randomized and adversarial inputs.
// Because PopcountWords dispatches to the build's best implementation
// (AVX2, NEON, or the unrolled Go loop), and the unrolled Go loop is also
// checked directly, one run of this file on an assembly-capable machine
// proves naive ≡ unrolled-Go ≡ assembly.

func naivePopcount(w []uint64) int {
	n := 0
	for _, x := range w {
		for ; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}

// xorshift is a tiny deterministic generator so the test inputs are stable
// across runs without seeding math/rand.
type xorshift uint64

func (s *xorshift) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return x
}

// kernelWordPatterns returns adversarial word values: empty, full, single
// bits at both ends, and alternating masks that stress byte/nibble
// boundaries inside the vector routines.
func kernelWordPatterns() []uint64 {
	return []uint64{
		0, ^uint64(0), 1, 1 << 63, 1 << 31, 1 << 32,
		0xAAAAAAAAAAAAAAAA, 0x5555555555555555,
		0x0F0F0F0F0F0F0F0F, 0xF0F0F0F0F0F0F0F0,
		0x8000000000000001, 0x00FF00FF00FF00FF,
	}
}

func checkKernels(t *testing.T, a []uint64) {
	t.Helper()
	if got, want := PopcountWords(a), naivePopcount(a); got != want {
		t.Fatalf("PopcountWords(len=%d) = %d, want %d", len(a), got, want)
	}
	if got, want := popcountWordsGo(a), naivePopcount(a); got != want {
		t.Fatalf("popcountWordsGo(len=%d) = %d, want %d", len(a), got, want)
	}
	if got, want := Bitset(a).Count(), naivePopcount(a); got != want {
		t.Fatalf("Bitset.Count(len=%d) = %d, want %d", len(a), got, want)
	}
}

func TestBitsetKernels(t *testing.T) {
	t.Logf("kernel flavour: %s", CPUFeatures())
	rng := xorshift(0x9E3779B97F4A7C15)
	pats := kernelWordPatterns()
	// Word lengths 0..20 cover the empty case, sub-vector tails, the
	// amd64 dispatch threshold (8 words) on both sides, and several full
	// vector steps with every tail remainder.
	for words := 0; words <= 20; words++ {
		a := make([]uint64, words)
		// Random fills at several densities.
		for trial := 0; trial < 32; trial++ {
			for i := range a {
				if trial%2 == 0 {
					a[i] = rng.next() & rng.next()
				} else {
					a[i] = rng.next() | rng.next()
				}
			}
			checkKernels(t, a)
		}
		// Adversarial constant patterns, and a lone differing word at
		// every position.
		for _, pa := range pats {
			for i := range a {
				a[i] = pa
			}
			checkKernels(t, a)
			for wi := 0; wi < words; wi++ {
				a[wi] ^= 1 << 63
				checkKernels(t, a)
				a[wi] ^= 1 << 63
			}
		}
	}
}

// checkTranspose holds Transpose64 (the kernel where the host has it) and
// the Go butterfly to the definition on one matrix, bit by bit, and
// requires a second transpose to restore it.
func checkTranspose(t *testing.T, orig [64]uint64) {
	t.Helper()
	for _, f := range []struct {
		name string
		fn   func(*[64]uint64)
	}{{"Transpose64 (" + transposeFlavour() + ")", Transpose64}, {"transpose64Go", transpose64Go}} {
		m := orig
		f.fn(&m)
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				got := m[i] >> uint(j) & 1
				want := orig[j] >> uint(i) & 1
				if got != want {
					t.Fatalf("%s: transposed[%d] bit %d = %d, want orig[%d] bit %d = %d",
						f.name, i, j, got, j, i, want)
				}
			}
		}
		f.fn(&m)
		if m != orig {
			t.Fatalf("%s: double transpose is not the identity", f.name)
		}
	}
}

func TestTranspose64(t *testing.T) {
	t.Logf("transpose flavour: %s", transposeFlavour())
	rng := xorshift(0xDEADBEEFCAFE1234)
	for trial := 0; trial < 64; trial++ {
		var m [64]uint64
		for i := range m {
			m[i] = rng.next()
		}
		checkTranspose(t, m)
	}
	// One set bit at every position: each lands exactly once.
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			var m [64]uint64
			m[i] = 1 << uint(j)
			checkTranspose(t, m)
		}
	}
}

// FuzzTranspose64 holds the transpose kernel to the Go butterfly on the
// fuzzer's matrix (its bytes fill the rows in order, the rest zero), and
// requires transposing twice to give the identity.
func FuzzTranspose64(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xFF}, 512))
	f.Add(bytes.Repeat([]byte{0xA5}, 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m [64]uint64
		for i, by := range data {
			if i >= 512 {
				break
			}
			m[i>>3] |= uint64(by) << (uint(i&7) * 8)
		}
		orig := m
		want := m
		Transpose64(&m)
		transpose64Go(&want)
		if m != want {
			t.Fatalf("Transpose64 (%s) differs from the Go butterfly", transposeFlavour())
		}
		Transpose64(&m)
		if m != orig {
			t.Fatalf("Transpose64 (%s) twice is not the identity", transposeFlavour())
		}
	})
}

// BenchmarkTranspose64 times the transpose this host dispatches to
// (kernel: AVX-512 where cpuid.AVX512 passes, else the Go butterfly) and
// the Go butterfly itself (go).
func BenchmarkTranspose64(b *testing.B) {
	var m [64]uint64
	rng := xorshift(0x9E3779B97F4A7C15)
	for i := range m {
		m[i] = rng.next()
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Transpose64(&m)
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			transpose64Go(&m)
		}
	})
}

// FuzzBitsetKernels drives the popcount against the naive loop across
// sizes 0–257 bits (0–5 words with ragged tails), with the fuzzer free to
// pick any byte content.
func FuzzBitsetKernels(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(1), []byte{0x80})
	f.Add(uint16(63), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(uint16(64), []byte{0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0x0F})
	f.Add(uint16(257), []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80})
	f.Fuzz(func(t *testing.T, nbits uint16, data []byte) {
		n := int(nbits) % 258
		words := BitsetWords(n)
		a := make([]uint64, words)
		for i, by := range data {
			if i>>3 >= len(a) {
				break
			}
			a[i>>3] |= uint64(by) << (uint(i&7) * 8)
		}
		checkKernels(t, a)
	})
}
