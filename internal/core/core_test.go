package core

import (
	"context"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
)

// sharedWorld caches the default world for this package's tests.
func sharedWorld(t *testing.T) *dataset.World {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func analyzer(t *testing.T) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(sharedWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAnalyzerNilWorld(t *testing.T) {
	if _, err := NewAnalyzer(nil); err == nil {
		t.Error("want error for nil world")
	}
}

func TestResolveTargets(t *testing.T) {
	net := sharedWorld(t).Submarine
	tests := []struct {
		target  Target
		wantErr bool
	}{
		{"us", false},
		{"sg", false},
		{"region:europe", false},
		{"region:asia", false},
		{"city:shanghai", false},
		{"zz", true},
		{"region:atlantis", true},
		{"city:gotham", true},
	}
	for _, tt := range tests {
		nodes, err := Resolve(net, tt.target)
		if (err != nil) != tt.wantErr {
			t.Errorf("Resolve(%q) err = %v, wantErr %v", tt.target, err, tt.wantErr)
		}
		if !tt.wantErr && len(nodes) == 0 {
			t.Errorf("Resolve(%q) returned no nodes without error", tt.target)
		}
	}
}

func TestPairConnectivityBounds(t *testing.T) {
	a := analyzer(t)
	ctx := context.Background()
	c, err := a.PairConnectivity(ctx, failure.Uniform{P: 0}, 150, 20, 1, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	if c.SurvivalProb != 1 {
		t.Errorf("no failures: survival = %v, want 1", c.SurvivalProb)
	}
	c, err = a.PairConnectivity(ctx, failure.Uniform{P: 1}, 150, 20, 1, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	if c.SurvivalProb != 0 {
		t.Errorf("total failure: survival = %v, want 0", c.SurvivalProb)
	}
}

func TestPairConnectivityValidation(t *testing.T) {
	a := analyzer(t)
	ctx := context.Background()
	if _, err := a.PairConnectivity(ctx, failure.S1(), 150, 0, 1, "us", "gb"); err == nil {
		t.Error("want trials error")
	}
	if _, err := a.PairConnectivity(ctx, failure.S1(), 150, 5, 1, "zz", "gb"); err == nil {
		t.Error("want target error")
	}
	if _, err := a.PairConnectivity(ctx, failure.S1(), 150, 5, 1, "us", "zz"); err == nil {
		t.Error("want target error")
	}
}

func TestPaperDirectionalClaims(t *testing.T) {
	// The headline §4.3.4 directions, tested on Monte Carlo estimates with
	// enough trials to be stable.
	a := analyzer(t)
	ctx := context.Background()
	const trials = 200
	s1 := failure.S1()
	s2 := failure.S2()

	usEUs1, err := a.PairConnectivity(ctx, s1, 150, trials, 2, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	usEUs2, err := a.PairConnectivity(ctx, s2, 150, trials, 2, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	if usEUs1.SurvivalProb > usEUs2.SurvivalProb {
		t.Errorf("US-Europe: S1 survival %v should not exceed S2 %v",
			usEUs1.SurvivalProb, usEUs2.SurvivalProb)
	}

	// GB-US transatlantic is devastated under S1; GB-Europe survives.
	gbUS, err := a.PairConnectivity(ctx, s1, 150, trials, 3, "gb", "us")
	if err != nil {
		t.Fatal(err)
	}
	gbEU, err := a.PairConnectivity(ctx, s1, 150, trials, 3, "gb", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	if gbUS.SurvivalProb > 0.3 {
		t.Errorf("GB-US survival under S1 = %v, want near 0", gbUS.SurvivalProb)
	}
	if gbEU.SurvivalProb < 0.9 {
		t.Errorf("GB-Europe survival under S1 = %v, want near 1", gbEU.SurvivalProb)
	}

	// Singapore keeps its neighbourhood even under S1.
	for _, partner := range []Target{"in", "id", "au"} {
		c, err := a.PairConnectivity(ctx, s1, 150, trials, 4, "sg", partner)
		if err != nil {
			t.Fatal(err)
		}
		if c.SurvivalProb < 0.7 {
			t.Errorf("SG-%s survival under S1 = %v, want high", partner, c.SurvivalProb)
		}
	}
}

func TestDirectSurvivalBrazilVsUS(t *testing.T) {
	// §4.3.4: Brazil keeps its direct link to Europe (EllaLink, 6200 km)
	// more often than the US keeps Florida-Portugal (9833 km).
	a := analyzer(t)
	s1 := failure.S1()
	br, err := a.DirectSurvival(s1, 150, "br", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	us, err := a.DirectSurvival(s1, 150, "us", "region:europe")
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Links) == 0 {
		t.Fatal("no direct Brazil-Europe cables; ellalink missing")
	}
	if len(us.Links) == 0 {
		t.Fatal("no direct US-Europe cables")
	}
	// Compare the most survivable single link each side has.
	if br.Links[0].DeathProb >= us.Links[0].DeathProb {
		t.Errorf("best Brazil-Europe link death %v should be below best US-Europe link death %v",
			br.Links[0].DeathProb, us.Links[0].DeathProb)
	}
}

func TestDirectSurvivalTransatlanticDies(t *testing.T) {
	// The north-Atlantic trunks between the US northeast and northern
	// Europe all die with near certainty under S1 (§4.3.4 US).
	a := analyzer(t)
	ds, err := a.DirectSurvival(failure.S1(), 150, "us", "gb")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Links) == 0 {
		t.Fatal("no direct US-GB cables")
	}
	for _, l := range ds.Links {
		if l.DeathProb < 0.9 {
			t.Errorf("US-GB cable %q death prob %v, want ~1 under S1", l.Name, l.DeathProb)
		}
	}
	if ds.AllDeadProb < 0.8 {
		t.Errorf("P(all US-GB cables die) = %v, want high", ds.AllDeadProb)
	}
}

func TestDirectSurvivalNoDirectLink(t *testing.T) {
	a := analyzer(t)
	// New Zealand has no direct cable to Brazil.
	ds, err := a.DirectSurvival(failure.S1(), 150, "nz", "br")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Links) != 0 || ds.AllDeadProb != 1 {
		t.Errorf("unexpected direct NZ-BR links: %+v", ds)
	}
}

func TestCountryAnalysis(t *testing.T) {
	a := analyzer(t)
	ctx := context.Background()
	rep, err := a.CountryAnalysis(ctx, failure.S1(), 150, 50, 5, "sg", []Target{"in"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cables) == 0 {
		t.Fatal("no cables touch singapore")
	}
	// cables sorted most-endangered first
	for i := 1; i < len(rep.Cables); i++ {
		if rep.Cables[i].DeathProb > rep.Cables[i-1].DeathProb {
			t.Error("cables not sorted by death probability")
			break
		}
	}
	if rep.ExpectedSurvivors <= 0 || rep.ExpectedSurvivors > float64(len(rep.Cables)) {
		t.Errorf("expected survivors = %v of %d", rep.ExpectedSurvivors, len(rep.Cables))
	}
	if len(rep.Partners) != 1 || rep.Partners[0].To != "in" {
		t.Errorf("partners = %+v", rep.Partners)
	}
	surv := rep.SurvivingCables()
	for i := 1; i < len(surv); i++ {
		if surv[i].DeathProb < surv[i-1].DeathProb {
			t.Error("survivors not sorted most-robust first")
			break
		}
	}
	for _, c := range surv {
		if c.DeathProb >= 0.5 {
			t.Errorf("surviving cable %q has death prob %v", c.Name, c.DeathProb)
		}
	}
}

func TestCountryAnalysisBadTarget(t *testing.T) {
	a := analyzer(t)
	if _, err := a.CountryAnalysis(context.Background(), failure.S1(), 150, 5, 1, "zz", nil); err == nil {
		t.Error("want error for unknown target")
	}
}

func TestCriticalCablesSorted(t *testing.T) {
	a := analyzer(t)
	crit := a.CriticalCables(0)
	if len(crit) == 0 {
		t.Fatal("no critical cables in a branch-heavy network")
	}
	limited := a.CriticalCables(4)
	if len(limited) != 4 {
		t.Errorf("limit ignored: %d", len(limited))
	}
	// Longest-first: look up lengths by name and verify ordering.
	net := sharedWorld(t).Submarine
	lengthOf := map[string]float64{}
	for i := range net.Cables {
		lengthOf[net.Cables[i].Name] = net.Cables[i].LengthKm()
	}
	for i := 1; i < len(crit); i++ {
		if lengthOf[crit[i]] > lengthOf[crit[i-1]]+1e-9 {
			t.Errorf("critical cables not sorted longest-first at %d", i)
			break
		}
	}
}

func TestHubCities(t *testing.T) {
	a := analyzer(t)
	hubs := a.HubCities(0)
	if len(hubs) == 0 {
		t.Fatal("a 1241-node cable network should have articulation points")
	}
	limited := a.HubCities(3)
	if len(limited) != 3 {
		t.Errorf("limit ignored: %d", len(limited))
	}
}

func TestPairConnectivityCancelled(t *testing.T) {
	a := analyzer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.PairConnectivity(ctx, failure.S1(), 150, 100, 1, "us", "gb"); err == nil {
		t.Error("want context error")
	}
}
