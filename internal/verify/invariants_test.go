package verify

import (
	"context"
	"testing"

	"gicnet/internal/dataset"
)

func TestInvariantsHoldOnDefaultWorld(t *testing.T) {
	results := Invariants(testWorld(t), dataset.DefaultSeed)
	if len(results) != 16 {
		t.Fatalf("invariant count = %d, want 16", len(results))
	}
	for _, r := range results {
		if !r.Passed {
			t.Errorf("invariant %s failed: %s", r.Name, r.Detail)
		}
		if r.Detail == "" {
			t.Errorf("invariant %s has no evidence detail", r.Name)
		}
	}
}

// Invariants must hold for any seed, not just the canonical one.
func TestInvariantsHoldForOtherSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed invariant sweep skipped in short mode")
	}
	w := testWorld(t)
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		for _, r := range Invariants(w, seed) {
			if !r.Passed {
				t.Errorf("seed %d: invariant %s failed: %s", seed, r.Name, r.Detail)
			}
		}
	}
}

func TestFailedFilter(t *testing.T) {
	rs := []Result{
		{Name: "a", Passed: true},
		{Name: "b", Passed: false, Detail: "broken"},
		{Name: "c", Passed: true},
	}
	bad := Failed(rs)
	if len(bad) != 1 || bad[0].Name != "b" {
		t.Errorf("Failed = %v, want just b", bad)
	}
}

// TestReplayProvesWorkerIndependence is the in-test form of
// `cmd/validate -only replay`. The full worker matrix is exercised with
// the golden trial count; short mode shrinks the trial count but still
// proves the property.
func TestReplayProvesWorkerIndependence(t *testing.T) {
	cfg := goldenConfig()
	if testing.Short() {
		cfg.Trials = 2
	}
	results := Replay(context.Background(), testWorld(t), cfg)
	if len(results) != 7 {
		t.Fatalf("replay check count = %d, want 7", len(results))
	}
	for _, r := range results {
		if !r.Passed {
			t.Errorf("replay %s failed: %s", r.Name, r.Detail)
		}
	}
}

func TestReplayWorkerCounts(t *testing.T) {
	counts := ReplayWorkerCounts()
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("worker counts = %v, want serial baseline first", counts)
	}
	seen := map[int]bool{}
	for _, c := range counts {
		if c < 1 {
			t.Errorf("non-positive worker count %d", c)
		}
		if seen[c] {
			t.Errorf("duplicate worker count %d in %v", c, counts)
		}
		seen[c] = true
	}
}

// A snapshot captured at a different trial count must NOT silently pass
// the golden diff — the meta fields are part of the compared surface.
func TestDiffCatchesConfigDrift(t *testing.T) {
	golden, err := LoadGolden("goldens/reproduce.json")
	if err != nil {
		t.Fatal(err)
	}
	drifted := *golden
	drifted.Trials++
	ms, err := DiffSnapshots(&drifted, golden, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Path != "trials" {
		t.Fatalf("snapshots with different trial counts diff as %v, want one trials mismatch", ms)
	}
}
