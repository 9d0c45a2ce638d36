package graph

import (
	"testing"

	"gicnet/internal/xrand"
)

func TestBitsetBasics(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		b := NewBitset(n)
		if len(b) != BitsetWords(n) {
			t.Fatalf("n=%d: %d words, want %d", n, len(b), BitsetWords(n))
		}
		if b.Count() != 0 {
			t.Fatalf("n=%d: fresh bitset count = %d", n, b.Count())
		}
		for i := 0; i < n; i++ {
			if b.Get(i) {
				t.Fatalf("n=%d: fresh bit %d set", n, i)
			}
		}
	}
}

func TestBitsetSetGetAroundWordBoundaries(t *testing.T) {
	const n = 200
	b := NewBitset(n)
	picks := []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 199}
	for _, i := range picks {
		b.Set(i)
	}
	if b.Count() != len(picks) {
		t.Errorf("count = %d, want %d", b.Count(), len(picks))
	}
	want := make(map[int]bool, len(picks))
	for _, i := range picks {
		want[i] = true
	}
	for i := 0; i < n; i++ {
		if b.Get(i) != want[i] {
			t.Errorf("bit %d = %v, want %v", i, b.Get(i), want[i])
		}
	}
	b.Unset(63)
	b.Unset(64)
	if b.Get(63) || b.Get(64) {
		t.Error("unset bits still readable")
	}
	if b.Count() != len(picks)-2 {
		t.Errorf("count after unset = %d", b.Count())
	}
	b.Clear()
	if b.Count() != 0 {
		t.Errorf("count after clear = %d", b.Count())
	}
}

func TestBitsetSetRange(t *testing.T) {
	const n = 300
	cases := [][2]int{
		{0, 0}, {5, 5}, {7, 3}, // empty and inverted ranges: no-ops
		{0, 1}, {0, 64}, {0, 65}, {63, 64}, {63, 65}, {64, 128},
		{10, 20}, {60, 70}, {1, 299}, {0, 300}, {255, 256}, {192, 300},
	}
	for _, c := range cases {
		lo, hi := c[0], c[1]
		b := NewBitset(n)
		b.SetRange(lo, hi)
		for i := 0; i < n; i++ {
			want := i >= lo && i < hi
			if b.Get(i) != want {
				t.Fatalf("SetRange(%d,%d): bit %d = %v, want %v", lo, hi, i, b.Get(i), want)
			}
		}
		// Ranges accumulate like individual Sets.
		b.SetRange(lo, hi)
		if want := hi - lo; hi > lo && b.Count() != want {
			t.Fatalf("SetRange(%d,%d) twice: count = %d, want %d", lo, hi, b.Count(), want)
		}
	}
	// Random ranges against the one-bit-at-a-time reference.
	rng := xrand.New(11)
	ref := NewBitset(n)
	got := NewBitset(n)
	for trial := 0; trial < 200; trial++ {
		lo, hi := rng.Intn(n), rng.Intn(n+1)
		got.SetRange(lo, hi)
		for i := lo; i < hi; i++ {
			ref.Set(i)
		}
	}
	for i := 0; i < n; i++ {
		if got.Get(i) != ref.Get(i) {
			t.Fatalf("random ranges: bit %d = %v, want %v", i, got.Get(i), ref.Get(i))
		}
	}
}

func TestBitsetCopyGrow(t *testing.T) {
	const n = 131
	src := NewBitset(n)
	rng := xrand.New(7)
	ref := make([]bool, n)
	for i := range ref {
		if rng.Bool(0.3) {
			ref[i] = true
			src.Set(i)
		}
	}
	dst := NewBitset(n)
	dst.CopyFrom(src)
	for i := range ref {
		if dst.Get(i) != ref[i] {
			t.Fatalf("bit %d: copy = %v, want %v", i, dst.Get(i), ref[i])
		}
	}

	// GrowBitset reuses capacity and clears.
	grown := GrowBitset(dst, 64)
	if len(grown) != 1 {
		t.Errorf("grown to %d words, want 1", len(grown))
	}
	if grown.Count() != 0 {
		t.Error("GrowBitset did not clear reused words")
	}
	bigger := GrowBitset(grown, 10*64+1)
	if len(bigger) != 11 || bigger.Count() != 0 {
		t.Errorf("bigger = %d words count %d", len(bigger), bigger.Count())
	}
}

// TestScratchBitsVariantsAgree cross-checks ComponentsBits and
// AnyConnectedBits, which walk the dead set word by word, against BFS
// flood fill through Scratch.Reachable on random graphs and dead sets.
func TestScratchBitsVariantsAgree(t *testing.T) {
	rng := xrand.New(0xb175)
	for gi := 0; gi < 20; gi++ {
		r := rng.SplitAt(uint64(gi))
		n := 2 + r.Intn(30)
		m := r.Intn(3 * n)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode("")
		}
		for e := 0; e < m; e++ {
			g.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
		}
		dead := NewBitset(g.NumEdges())
		for e := 0; e < g.NumEdges(); e++ {
			if !r.Bool(0.6) {
				dead.Set(e)
			}
		}
		labels, wantSets := bfsLabels(g, dead)
		s := g.NewScratch()
		gotSets := s.ComponentsBits(dead).Sets()
		if wantSets != gotSets {
			t.Fatalf("graph %d: BFS sees %d components, ComponentsBits %d", gi, wantSets, gotSets)
		}
		for trial := 0; trial < 8; trial++ {
			from := []NodeID{NodeID(r.Intn(n))}
			to := []NodeID{NodeID(r.Intn(n)), NodeID(r.Intn(n))}
			want := labels[from[0]] == labels[to[0]] || labels[from[0]] == labels[to[1]]
			got := s.AnyConnectedBits(dead, from, to)
			if want != got {
				t.Fatalf("graph %d: BFS says %v, AnyConnectedBits %v for %v->%v", gi, want, got, from, to)
			}
		}
		// nil bitset means fully alive
		if !s.AnyConnectedBits(nil, []NodeID{0}, []NodeID{0}) {
			t.Fatal("nil dead set: node not connected to itself")
		}
	}
}
