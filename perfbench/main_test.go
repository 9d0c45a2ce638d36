package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric names and units the runs print must be the ones the
// benchmark declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		specs []metricSpec
		decl  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(c.specs) != len(c.decl) {
			t.Fatalf("%s: %d metrics printed, %d declared", c.what, len(c.specs), len(c.decl))
		}
		for i, s := range c.specs {
			if s.name != c.decl[i].Name || s.unit != c.decl[i].Unit {
				t.Errorf("%s[%d]: printed %s (%s), declared %s (%s)", c.what, i, s.name, s.unit, c.decl[i].Name, c.decl[i].Unit)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		change float64
		spread [2]float64
		ok     bool
	}{
		{0.02, [2]float64{0.03, 0.05}, true},
		{-0.3, [2]float64{0.03, 0.05}, false}, // a second set far better is drift too
		{0.3, [2]float64{0.03, 0.05}, false},
		{0.01, [2]float64{0.03, 0.26}, false},
		{0.01, [2]float64{0.12, 0.02}, true}, // above a third: noted, not failed
	} {
		if _, ok := verdict(c.change, c.spread, 0.25); ok != c.ok {
			t.Errorf("verdict(%v, %v) ok = %v, want %v", c.change, c.spread, ok, c.ok)
		}
	}
}
