package gicnet

import (
	"context"
	"errors"
	"testing"
)

func TestDefaultWorldFacade(t *testing.T) {
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	if w.Seed != DefaultSeed {
		t.Errorf("seed = %d", w.Seed)
	}
	if len(w.Submarine.Cables) != 470 {
		t.Errorf("submarine cables = %d", len(w.Submarine.Cables))
	}
}

func TestNewWorldSeedsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("double world generation skipped in short mode")
	}
	a, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Submarine.Nodes {
		if a.Submarine.Nodes[i] != b.Submarine.Nodes[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical submarine nodes")
	}
}

func TestNewWorldWithConfig(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Routers.ASCount = 256
	w, err := NewWorldWithConfig(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Routers.ASes) != 256 {
		t.Errorf("AS count = %d", len(w.Routers.ASes))
	}
}

func TestFacadeModels(t *testing.T) {
	if S1().Name() != "S1(high)" || S2().Name() != "S2(low)" {
		t.Error("model names wrong")
	}
	m, err := StormModel(Carrington)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "storm:carrington-1859" {
		t.Errorf("storm model name = %q", m.Name())
	}
}

func TestFacadeSimulate(t *testing.T) {
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(context.Background(), w.Intertubes, SimConfig{
		Model: S2(), SpacingKm: 150, Trials: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CableFrac.N() != 3 {
		t.Errorf("trials recorded = %d", res.CableFrac.N())
	}
}

func TestFacadeAnalyses(t *testing.T) {
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnalyzer(w); err != nil {
		t.Fatal(err)
	}
	as, err := AnalyzeASes(w)
	if err != nil {
		t.Fatal(err)
	}
	if as.ReachAbove40 <= 0 {
		t.Error("AS analysis empty")
	}
	ir, err := AnalyzeSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	if !ir.GoogleMoreResilientThanFacebook() {
		t.Error("expected google > facebook resilience")
	}
}

func TestFacadeShutdownAndSatellite(t *testing.T) {
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanShutdown(w.Submarine, Quebec, DefaultShutdownOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Improvement() <= 0 {
		t.Error("no shutdown improvement for moderate storm")
	}
	exp, err := AssessConstellation(Starlink(), Carrington)
	if err != nil {
		t.Fatal(err)
	}
	if exp.DamagedExpected <= 0 {
		t.Error("no satellite damage under carrington")
	}
}

func TestFacadeRecommendBridges(t *testing.T) {
	if testing.Short() {
		t.Skip("bridge candidate search skipped in short mode")
	}
	w, err := DefaultWorld()
	if err != nil {
		t.Fatal(err)
	}
	cands, err := RecommendBridges(w, S1(), 150, 10, 1, 2, "nz", "us")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Errorf("candidates = %d", len(cands))
	}
}

// TestFacadeRefusesNilNetwork calls every exported function that takes a
// *Network with a nil one: each must refuse it with an error, never a
// panic, except NewCableSet, which has no error to return and gives an
// empty set.
func TestFacadeRefusesNilNetwork(t *testing.T) {
	ctx := context.Background()
	calls := []struct {
		name string
		call func() error
	}{
		{"Simulate", func() error {
			_, err := Simulate(ctx, nil, SimConfig{Model: S1(), SpacingKm: 150, Trials: 10, Seed: 1})
			return err
		}},
		{"PlanShutdown", func() error {
			_, err := PlanShutdown(nil, Carrington, DefaultShutdownOptions())
			return err
		}},
		{"RouteTraffic", func() error {
			_, err := RouteTraffic(nil, DefaultTrafficDemands(), nil)
			return err
		}},
		{"CompareTrafficLoads", func() error {
			_, err := CompareTrafficLoads(nil, nil, nil)
			return err
		}},
		{"SampleStorm", func() error {
			_, err := SampleStorm(nil, S1(), 150, 1)
			return err
		}},
		{"SampleFaults", func() error {
			_, err := SampleFaults(nil, nil, 150, 1, 1)
			return err
		}},
		{"PlanRecovery", func() error {
			_, err := PlanRecovery(nil, nil, DefaultRepairFleet())
			return err
		}},
		{"NewCableSet", func() error {
			if s := NewCableSet(nil); len(s) != 0 {
				return nil
			}
			return errors.New("empty set")
		}},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s(nil network) panicked: %v", c.name, r)
				}
			}()
			if err := c.call(); err == nil {
				t.Fatalf("%s(nil network) was not refused", c.name)
			}
		})
	}
}
