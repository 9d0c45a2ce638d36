package dataset

import (
	"testing"

	"gicnet/internal/xrand"
)

// worldPins are the fingerprints of the three cable networks of
// GenerateWorld(DefaultWorldConfig(), seed), recorded from the generators
// that scanned every node pair with a haversine and sorted every
// candidate list. The screened nearest-node searches must build the same
// worlds bit for bit.
var worldPins = []struct {
	seed                        uint64
	submarine, intertubes, itus uint64
}{
	{1, 0xf6c985ff846c2514, 0xead5d77f928fcb7d, 0x9084a0b732058088},
	{2, 0x4053abf12407e452, 0x265f828d9e54f48c, 0x66e65a159fc0bd07},
	{3, 0xab2f2581ead1e138, 0xc23251af9550207a, 0x3c0ac01b28bf4bd1},
	{4, 0x79c171639b04ae0c, 0xd14d9f944bf2fa6f, 0xa892877e87f80ed7},
	{5, 0x026467b086644c49, 0x34401b042f2e28de, 0x9744c3e2a9219047},
	{6, 0x5269f096d521127d, 0x08cf2187bf615f6f, 0xe0100be9042d792a},
	{7, 0x6b31dfda74ea272b, 0xefeb7f0c3bbe95cc, 0xe93da1e013c157b5},
	{8, 0x8e42440eaaa906ce, 0x338596fbfdd0d6e4, 0xfea49089b138080b},
	{9, 0x28d3a717cae4ff5a, 0xf1cba30ee095a322, 0xfb77abb0417da2f6},
	{10, 0x5c977d1fa312d406, 0x61c82c51ee60c7df, 0x5ecd5093d28ed0e8},
	{11, 0x6c3bae9246b9ff8d, 0x1cfe4f8f27c12aec, 0xd014e9a624f3860d},
	{12, 0x38c8ca540f44563d, 0x368bf7cc558b1495, 0x2370ac82bc1d0d2f},
	{42, 0xe8c5d9a778ab2d7f, 0x77c89d118d3872fd, 0xaae48ffa33f83aab},
	{1859, 0x962bea7613642c53, 0x9d56e7ec649237d3, 0xe2824c36038104d0},
	{1921, 0xa8aa1a543272b08c, 0x9420c4d51e9a8f7a, 0x51b6d30bd3efbe7d},
	{1989, 0xc8ea3c11790c3f5b, 0x9a7107d88beca811, 0x3bb50725d03a3594},
	{2003, 0xcf417cde953bd12d, 0xe395392fe2f4ed5b, 0x18484779a23e9e75},
	{2024, 0x71d836ee0d5773cf, 0x8f6a835939ab0e11, 0xa8510fb77b688de4},
}

// TestWorldFingerprintsPinned regenerates the three cable networks for
// every pinned seed and requires each network's fingerprint exactly.
func TestWorldFingerprintsPinned(t *testing.T) {
	cfg := DefaultWorldConfig()
	for _, pin := range worldPins {
		root := xrand.New(pin.seed)
		sub, err := GenerateSubmarine(cfg.Submarine, root.Split(1))
		if err != nil {
			t.Fatal(err)
		}
		tubes, err := GenerateIntertubes(cfg.Intertubes, root.Split(2))
		if err != nil {
			t.Fatal(err)
		}
		itu, err := GenerateITU(cfg.ITU, root.Split(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want uint64
		}{
			{"submarine", sub.Fingerprint(), pin.submarine},
			{"intertubes", tubes.Fingerprint(), pin.intertubes},
			{"itu", itu.Fingerprint(), pin.itus},
		} {
			if c.got != c.want {
				t.Errorf("seed %d %s: fingerprint %016x, want %016x", pin.seed, c.name, c.got, c.want)
			}
		}
	}
}

// TestGenerateSubmarineAllocationCeiling pins the submarine generator's
// allocations. Rebuilding a graph projection per bridge merge and sorting
// a candidate list per branch made about 630,000 allocations per world.
func TestGenerateSubmarineAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling skipped in short mode")
	}
	const ceiling = 60000
	seed := uint64(0)
	allocs := testing.AllocsPerRun(3, func() {
		seed++
		if _, err := GenerateSubmarine(DefaultSubmarineConfig(), xrand.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("GenerateSubmarine: %.0f allocs per world, ceiling %d", allocs, ceiling)
	}
}
