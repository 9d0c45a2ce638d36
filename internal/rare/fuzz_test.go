package rare

import (
	"testing"

	"gicnet/internal/xrand"
)

// FuzzSobol drives the scrambled sequence over random keys, dimension
// counts and block positions. Properties: coordinates stay in [0,1); no
// two points within an aligned 64-point block coincide (in any single
// dimension — the stratification guarantee is per-coordinate); and each
// coordinate's 64 dyadic bins are hit exactly once per block, whatever
// the scramble seed.
func FuzzSobol(f *testing.F) {
	f.Add(uint64(1), 1, uint32(0))
	f.Add(uint64(1859), 8, uint32(7))
	f.Add(uint64(0), 32, uint32(1<<20))
	f.Fuzz(func(t *testing.T, key uint64, dims int, block uint32) {
		if dims < 1 || dims > SobolMaxDims {
			t.Skip()
		}
		if block > (1<<26)-1 {
			block &= (1 << 26) - 1 // keep indices inside the 32-bit sequence
		}
		s, err := NewSobol(dims, *xrand.New(key))
		if err != nil {
			t.Fatalf("NewSobol: %v", err)
		}
		const size = 64
		pt := make([]float64, dims)
		hit := make([][]bool, dims)
		for d := range hit {
			hit[d] = make([]bool, size)
		}
		for i := uint32(0); i < size; i++ {
			point(&s, block*size+i, pt)
			for d := 0; d < dims; d++ {
				if !(pt[d] >= 0 && pt[d] < 1) {
					t.Fatalf("block %d point %d dim %d: coordinate %v outside [0,1)", block, i, d, pt[d])
				}
				bin := int(pt[d] * size)
				if hit[d][bin] {
					t.Fatalf("block %d dim %d: bin %d hit twice — scramble broke stratification", block, d, bin)
				}
				hit[d][bin] = true
			}
		}
	})
}
