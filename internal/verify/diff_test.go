package verify

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestToleranceOK(t *testing.T) {
	tol := Tolerance{Rel: 1e-9, Abs: 1e-12}
	cases := []struct {
		name      string
		got, want float64
		ok        bool
	}{
		{"exact", 1.5, 1.5, true},
		{"within-rel", 1e6, 1e6 * (1 + 1e-10), true},
		{"outside-rel", 1e6, 1e6 * (1 + 1e-8), false},
		{"within-abs", 0, 1e-13, true},
		{"outside-abs", 0, 1e-11, false},
		{"both-nan", nan(), nan(), true},
		{"one-nan", 1, nan(), false},
		{"zero-zero", 0, 0, true},
	}
	for _, c := range cases {
		if got := tol.ok(c.got, c.want); got != c.ok {
			t.Errorf("%s: ok(%v, %v) = %v, want %v", c.name, c.got, c.want, got, c.ok)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// diffTrees is a test helper running the walker over two ad-hoc values.
func diffTrees(t *testing.T, got, want any, tol Tolerance) []Mismatch {
	t.Helper()
	gt, err := toTree(got)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := toTree(want)
	if err != nil {
		t.Fatal(err)
	}
	var out []Mismatch
	diffValue("", gt, wt, tol, &out)
	return out
}

func TestDiffValuePaths(t *testing.T) {
	tol := DefaultTolerance()
	type inner struct {
		Xs []float64 `json:"xs"`
	}
	type outer struct {
		Name  string  `json:"name"`
		Inner []inner `json:"inner"`
	}
	got := outer{Name: "a", Inner: []inner{{Xs: []float64{1, 2, 3}}}}
	want := outer{Name: "a", Inner: []inner{{Xs: []float64{1, 2.5, 3}}}}
	ms := diffTrees(t, got, want, tol)
	if len(ms) != 1 {
		t.Fatalf("mismatches = %v, want exactly 1", ms)
	}
	if ms[0].Path != "inner[0].xs[1]" {
		t.Errorf("path = %q, want inner[0].xs[1]", ms[0].Path)
	}
	if !strings.Contains(ms[0].String(), "got 2, want 2.5") {
		t.Errorf("rendered mismatch %q lacks values", ms[0].String())
	}
}

func TestDiffValueShapeMismatches(t *testing.T) {
	tol := DefaultTolerance()
	// Array length mismatch reports once, not per element.
	ms := diffTrees(t, map[string][]float64{"xs": {1, 2}}, map[string][]float64{"xs": {1, 2, 3}}, tol)
	if len(ms) != 1 || ms[0].Path != "xs.len" {
		t.Errorf("length mismatch = %v, want one xs.len entry", ms)
	}
	// Missing and extra keys are both reported.
	ms = diffTrees(t, map[string]float64{"a": 1, "extra": 2}, map[string]float64{"a": 1, "missing": 3}, tol)
	if len(ms) != 2 {
		t.Fatalf("key mismatches = %v, want 2", ms)
	}
	paths := []string{ms[0].Path, ms[1].Path}
	if paths[0] != "extra" || paths[1] != "missing" {
		t.Errorf("paths = %v, want [extra missing]", paths)
	}
	// Type mismatch (string vs number).
	ms = diffTrees(t, map[string]any{"v": "s"}, map[string]any{"v": 1.0}, tol)
	if len(ms) != 1 {
		t.Errorf("type mismatch = %v, want 1", ms)
	}
}

func TestDiffSnapshotsDetectsPerturbation(t *testing.T) {
	base := &Snapshot{
		Meta:        Meta{Schema: SchemaVersion, Seed: 1, Trials: 2},
		Experiments: []Section{{ID: "fig5", Value: json.RawMessage(`{"submarine":{"p50":775,"p99":28000}}`)}},
	}
	same := *base
	ms, err := DiffSnapshots(&same, base, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("identical snapshots diff: %v", ms)
	}
	perturbed := *base
	perturbed.Experiments = []Section{{ID: "fig5", Value: json.RawMessage(`{"submarine":{"p50":776,"p99":28000}}`)}}
	ms, err = DiffSnapshots(&perturbed, base, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || !strings.Contains(ms[0].Path, "fig5.submarine.p50") {
		t.Fatalf("perturbation diff = %v, want one fig5.submarine.p50 mismatch", ms)
	}
}
