package grid

import (
	"errors"
	"slices"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

func subNet(t *testing.T) *dataset.World {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func s1Probs() [geo.NumBands]float64 {
	return [geo.NumBands]float64{geo.BandLow: 0.01, geo.BandMid: 0.1, geo.BandHigh: 1}
}

func TestDefaultModelShape(t *testing.T) {
	m := DefaultModel(s1Probs())
	if len(m.Regions) != (len(geo.Regions())+1)*geo.NumBands {
		t.Errorf("regions = %d", len(m.Regions))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (Model{}).Validate(); err == nil {
		t.Error("empty model should fail")
	}
	m := DefaultModel(s1Probs())
	m.BackupProb = 1.5
	if err := m.Validate(); err == nil {
		t.Error("bad backup prob should fail")
	}
	m = DefaultModel(s1Probs())
	m.Regions[0].FailProb = -1
	if err := m.Validate(); err == nil {
		t.Error("bad region prob should fail")
	}
}

func TestCascadeNeverRevivesCables(t *testing.T) {
	w := subNet(t)
	net := w.Submarine
	m := DefaultModel(s1Probs())
	plan, err := failure.Compile(net, failure.S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	dead := plan.NewDead()
	plan.SampleDense(dead, rng)
	input := append(graph.Bitset(nil), dead...)
	coupled, dark, err := m.Cascade(net, dead, rng)
	if err != nil {
		t.Fatal(err)
	}
	if dark < 0 {
		t.Error("negative dark count")
	}
	for ci := range net.Cables {
		if dead.Get(ci) && !coupled.Get(ci) {
			t.Fatal("cascade revived a dead cable")
		}
	}
	if !slices.Equal(dead, input) {
		t.Error("cascade modified its input set")
	}
}

func TestCascadeZeroGridFailure(t *testing.T) {
	w := subNet(t)
	net := w.Submarine
	m := DefaultModel([geo.NumBands]float64{})
	dead := graph.NewBitset(len(net.Cables))
	coupled, dark, err := m.Cascade(net, dead, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if dark != 0 {
		t.Errorf("dark stations = %d with no grid failures", dark)
	}
	if n := coupled.Count(); n != 0 {
		t.Fatalf("%d cables died without any failure source", n)
	}
}

func TestCascadeTotalGridFailureNoBackup(t *testing.T) {
	w := subNet(t)
	net := w.Submarine
	m := DefaultModel([geo.NumBands]float64{1, 1, 1})
	m.BackupProb = 0
	dead := graph.NewBitset(len(net.Cables))
	coupled, dark, err := m.Cascade(net, dead, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if dark != len(net.Nodes) {
		t.Errorf("dark = %d, want all %d stations", dark, len(net.Nodes))
	}
	for ci := range net.Cables {
		if !coupled.Get(ci) {
			t.Fatalf("cable %d survived a total blackout", ci)
		}
	}
}

func TestCascadeLengthMismatch(t *testing.T) {
	w := subNet(t)
	m := DefaultModel(s1Probs())
	if _, _, err := m.Cascade(w.Submarine, graph.NewBitset(2), xrand.New(1)); !errors.Is(err, topology.ErrDeadSet) {
		t.Errorf("err %v, want topology.ErrDeadSet", err)
	}
}

func TestCompareAmplifies(t *testing.T) {
	w := subNet(t)
	net := w.Submarine
	m := DefaultModel(s1Probs())
	amp, err := Compare(net, failure.S2(), m, 150, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if amp.Factor() < 1 {
		t.Errorf("grid coupling should amplify failures: factor %v", amp.Factor())
	}
	if amp.CableFracCoupled.Mean() < amp.CableFracAlone.Mean() {
		t.Error("coupled mean below alone mean")
	}
	if _, err := Compare(net, failure.S2(), m, 150, 0, 1); err == nil {
		t.Error("want trials error")
	}
}

func TestFactorEdgeCases(t *testing.T) {
	var a Amplification
	if a.Factor() != 1 {
		t.Errorf("empty amplification factor = %v, want 1", a.Factor())
	}
	a.CableFracCoupled.Add(0.5)
	a.CableFracAlone.Add(0)
	if a.Factor() < 1e6 {
		t.Error("coupling-only failures should report a huge factor")
	}
}
