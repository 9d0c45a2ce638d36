package asn

import (
	"math"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/geo"
)

func catalog(t *testing.T) *dataset.RouterCatalog {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	return w.Routers
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("want error for nil catalog")
	}
	if _, err := Analyze(&dataset.RouterCatalog{}); err == nil {
		t.Error("want error for empty catalog")
	}
}

func TestAnalyzeSummary(t *testing.T) {
	s, err := Analyze(catalog(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.ReachAbove40-0.57) > 0.07 {
		t.Errorf("ReachAbove40 = %v, want ~0.57", s.ReachAbove40)
	}
	if s.MedianSpreadDeg <= 0 || s.P90SpreadDeg <= s.MedianSpreadDeg {
		t.Errorf("spread quantiles broken: %v / %v", s.MedianSpreadDeg, s.P90SpreadDeg)
	}
	// Exposure classes partition the catalog.
	total := 0
	for _, n := range s.ByExposure {
		total += n
	}
	if total != 8192 {
		t.Errorf("exposure classes sum to %d", total)
	}
	// Most ASes are geographically restricted (the paper's conclusion).
	if s.ByExposure[ExposureDirect] > total/4 {
		t.Errorf("too many direct-exposure ASes: %d", s.ByExposure[ExposureDirect])
	}
}

func TestAnalyzeCurveShape(t *testing.T) {
	s, err := Analyze(catalog(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.ReachFrac[0] != 1 {
		t.Errorf("reach at 0 = %v, want 1", s.ReachFrac[0])
	}
	for i := 1; i < len(s.ReachFrac); i++ {
		if s.ReachFrac[i] > s.ReachFrac[i-1]+1e-12 {
			t.Error("reach curve must be non-increasing")
			break
		}
	}
	pts := s.SpreadPoints(10)
	if len(pts) != 10 {
		t.Errorf("spread points = %d", len(pts))
	}
}

func TestClassify(t *testing.T) {
	compactSouth := &dataset.AS{Routers: []geo.Coord{{Lat: 5, Lon: 0}, {Lat: 6, Lon: 1}}}
	compactNorth := &dataset.AS{Routers: []geo.Coord{{Lat: 55, Lon: 0}, {Lat: 56, Lon: 1}}}
	wideSouth := &dataset.AS{Routers: []geo.Coord{{Lat: -30, Lon: 0}, {Lat: 5, Lon: 1}}}
	wideNorth := &dataset.AS{Routers: []geo.Coord{{Lat: 10, Lon: 0}, {Lat: 60, Lon: 1}}}
	tests := []struct {
		name string
		as   *dataset.AS
		want Exposure
	}{
		{"compact south", compactSouth, ExposureLow},
		{"compact north", compactNorth, ExposureIndirect},
		{"wide south", wideSouth, ExposureIndirect},
		{"wide north", wideNorth, ExposureDirect},
	}
	for _, tt := range tests {
		if got := Classify(tt.as, geo.MidBandCut); got != tt.want {
			t.Errorf("%s: Classify = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestExposureString(t *testing.T) {
	if ExposureLow.String() != "low" || ExposureDirect.String() != "direct" ||
		ExposureIndirect.String() != "indirect" || Exposure(9).String() != "unknown" {
		t.Error("exposure names wrong")
	}
}
