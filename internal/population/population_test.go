package population

import (
	"math"
	"testing"

	"gicnet/internal/xrand"
)

func TestDensityNonNegativeEverywhere(t *testing.T) {
	for lat := -90.0; lat <= 90; lat += 0.5 {
		if DensityAt(lat) < 0 {
			t.Fatalf("negative density at %v", lat)
		}
	}
	if DensityAt(-91) != 0 || DensityAt(91) != 0 {
		t.Error("out-of-range latitude should have zero density")
	}
}

func TestNorthernHemisphereDominates(t *testing.T) {
	m, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	north := 0.0
	for i, lat := range m.lats {
		if lat > 0 {
			north += m.mass[i]
		}
	}
	// ~87-90% of world population lives in the northern hemisphere.
	if north < 0.8 || north > 0.95 {
		t.Errorf("northern share = %v, want ~0.85-0.90", north)
	}
}

func TestCalibrationAbove40(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	got := m.FractionAbove(40)
	// Paper: "only 16% of the world population is in this region".
	if math.Abs(got-0.16) > 0.04 {
		t.Errorf("fraction above 40 = %v, want ~0.16", got)
	}
}

func TestPeakInNorthernSubtropics(t *testing.T) {
	m, _ := New(2)
	pdf := m.PDF()
	centers := m.BinCenters()
	best := 0
	for i := range pdf {
		if pdf[i] > pdf[best] {
			best = i
		}
	}
	if centers[best] < 15 || centers[best] > 40 {
		t.Errorf("population peak at %v, want in 15-40N", centers[best])
	}
}

func TestPDFSumsTo100(t *testing.T) {
	m, _ := New(2)
	sum := 0.0
	for _, v := range m.PDF() {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("PDF sums to %v", sum)
	}
}

func TestNewValidation(t *testing.T) {
	for _, w := range []float64{0, -1, 91} {
		if _, err := New(w); err == nil {
			t.Errorf("New(%v) should error", w)
		}
	}
}

func TestFractionAboveMonotone(t *testing.T) {
	m, _ := New(2)
	curve := m.ThresholdCurve([]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	if math.Abs(curve[0]-1) > 1e-9 {
		t.Errorf("fraction above 0 = %v, want 1", curve[0])
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-12 {
			t.Errorf("threshold curve not non-increasing at %d", i)
		}
	}
	if curve[9] > 0.001 {
		t.Errorf("fraction above 90 = %v", curve[9])
	}
}

func TestSampleLatMatchesModel(t *testing.T) {
	m, _ := New(2)
	rng := xrand.New(1)
	const n = 200000
	above40 := 0
	for i := 0; i < n; i++ {
		lat := m.SampleLat(rng)
		if lat < -90 || lat > 90 {
			t.Fatalf("sampled latitude %v out of range", lat)
		}
		if math.Abs(lat) > 40 {
			above40++
		}
	}
	got := float64(above40) / n
	want := m.FractionAbove(40)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("sampled above-40 share %v, model %v", got, want)
	}
}

func TestBinCentersCopy(t *testing.T) {
	m, _ := New(2)
	c := m.BinCenters()
	c[0] = 12345
	if m.BinCenters()[0] == 12345 {
		t.Error("BinCenters must return a copy")
	}
}
