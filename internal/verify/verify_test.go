package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
)

func testWorld(t *testing.T) *dataset.World {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// goldenConfig mirrors the configuration the checked-in golden was
// captured with (cmd/validate defaults).
func goldenConfig() experiments.Config {
	return experiments.Config{Trials: 10, Seed: dataset.DefaultSeed}
}

// TestGoldenRegression is the in-test form of `cmd/validate -only golden`:
// a fresh capture must match the checked-in snapshot within the default
// tolerance. If this fails after an intended model change, run
// `make update-golden`, review the diff, and commit it.
func TestGoldenRegression(t *testing.T) {
	golden, err := LoadGolden("goldens/reproduce.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig()
	if golden.Seed != cfg.Seed || golden.Trials != cfg.Trials {
		t.Fatalf("golden captured with seed=%d trials=%d; test expects seed=%d trials=%d",
			golden.Seed, golden.Trials, cfg.Seed, cfg.Trials)
	}
	snap, err := Capture(context.Background(), testWorld(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mismatches, err := DiffSnapshots(snap, golden, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mismatches {
		if i >= 20 {
			t.Errorf("... and %d more mismatches", len(mismatches)-i)
			break
		}
		t.Errorf("golden mismatch: %s", m)
	}
}

// TestCaptureShape keeps the registry and the golden capture in step: the
// registry's IDs are unique and are exactly the golden's experiment keys,
// and no golden value is an empty object — a projection that passed a
// stats.Running through would pin nothing.
func TestCaptureShape(t *testing.T) {
	golden, err := LoadGolden("goldens/reproduce.json")
	if err != nil {
		t.Fatal(err)
	}
	inGolden := map[string]bool{}
	for _, sec := range golden.Experiments {
		inGolden[sec.ID] = true
	}
	seen := map[string]bool{}
	for _, id := range experiments.IDs() {
		if seen[id] {
			t.Errorf("registry lists %q twice", id)
		}
		seen[id] = true
		if !inGolden[id] {
			t.Errorf("registry experiment %q has no golden key", id)
		}
	}
	for _, sec := range golden.Experiments {
		if !seen[sec.ID] {
			t.Errorf("golden key %q names no registry experiment", sec.ID)
		}
	}

	b, err := os.ReadFile("goldens/reproduce.json")
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		t.Fatal(err)
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			if len(v) == 0 {
				t.Errorf("golden value %s is an empty object", path)
			}
			for k, x := range v {
				walk(path+"."+k, x)
			}
		case []any:
			for i, x := range v {
				walk(fmt.Sprintf("%s[%d]", path, i), x)
			}
		}
	}
	walk("", tree)
}

// TestCaptureDeterministic: two captures with the same config must be
// identical — the property the golden layer rests on.
func TestCaptureDeterministic(t *testing.T) {
	w := testWorld(t)
	cfg := experiments.Config{Trials: 3, Seed: 99}
	a, err := Capture(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4 // different parallelism must not matter
	b, err := Capture(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := DiffSnapshots(a, b, Tolerance{}) // zero tolerance: exact
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("captures diverged: %v", ms)
	}
}

// TestWriteGoldenRoundTrip: rewriting the checked-in golden reproduces it
// byte for byte, so an unchanged -update leaves an empty git diff.
func TestWriteGoldenRoundTrip(t *testing.T) {
	want, err := os.ReadFile("goldens/reproduce.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadGolden("goldens/reproduce.json")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/golden.json"
	if err := WriteGolden(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rewritten golden differs from the checked-in file")
	}
}

func TestLoadGoldenFallsBackToEmbedded(t *testing.T) {
	fromDisk, err := LoadGolden("goldens/reproduce.json")
	if err != nil {
		t.Fatal(err)
	}
	fromEmbed, err := LoadGolden(t.TempDir() + "/does-not-exist.json")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := DiffSnapshots(fromDisk, fromEmbed, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("embedded golden diverges from on-disk golden: %v", ms)
	}
}
