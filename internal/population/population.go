// Package population models the latitude distribution of world population
// (and, by the paper's §4.2.2 argument, Internet users) used as the
// comparison baseline in Figures 3 and 4.
//
// The paper uses the NASA SEDAC gridded population of the world. That
// dataset is replaced here by a compact parametric model of population
// density per degree of latitude, built from the well-known features of the
// real marginal: a dominant band between 20N and 40N (South/East Asia), a
// secondary European band around 45-55N, tropical bands, and thin southern
// tails. The model is calibrated so that ~16% of population lives above 40
// absolute latitude, the figure the paper reports.
package population

import (
	"errors"
	"math"

	"gicnet/internal/xrand"
)

// bump is one Gaussian component of the latitude mixture.
type bump struct {
	centre float64 // degrees latitude (signed)
	width  float64 // standard deviation in degrees
	weight float64 // relative mass
}

// mixture approximates the world population marginal over latitude.
// Weights are relative; the model normalises them.
var mixture = []bump{
	{centre: 25, width: 7, weight: 30},   // northern India, southern China, Middle East
	{centre: 35, width: 6, weight: 22},   // central China, Japan, Mediterranean, US south
	{centre: 15, width: 8, weight: 14},   // Sahel, southern India, SE Asia
	{centre: 5, width: 8, weight: 9},     // equatorial belt
	{centre: 48, width: 6, weight: 11},   // Europe, northern US, Canada border
	{centre: 57, width: 5, weight: 2.2},  // northern Europe
	{centre: -8, width: 7, weight: 6},    // Indonesia, Brazil north
	{centre: -22, width: 7, weight: 4},   // Brazil south, southern Africa
	{centre: -35, width: 4, weight: 1.8}, // Argentina, Australia coasts
}

// DensityAt returns the (unnormalised) population density at a latitude.
func DensityAt(lat float64) float64 {
	if lat < -90 || lat > 90 {
		return 0
	}
	d := 0.0
	for _, b := range mixture {
		z := (lat - b.centre) / b.width
		d += b.weight * math.Exp(-z*z/2)
	}
	return d
}

// Model is a discretised latitude population model.
type Model struct {
	binWidth float64
	lats     []float64 // bin centres, south to north
	mass     []float64 // normalised mass per bin, sums to 1
}

// New builds a model with the given bin width in degrees (the paper's
// Figure 3 uses 2-degree bins).
func New(binWidthDeg float64) (*Model, error) {
	if binWidthDeg <= 0 || binWidthDeg > 90 {
		return nil, errors.New("population: bin width out of range")
	}
	n := int(math.Round(180 / binWidthDeg))
	m := &Model{
		binWidth: binWidthDeg,
		lats:     make([]float64, n),
		mass:     make([]float64, n),
	}
	total := 0.0
	for i := 0; i < n; i++ {
		lat := -90 + (float64(i)+0.5)*binWidthDeg
		m.lats[i] = lat
		m.mass[i] = DensityAt(lat)
		total += m.mass[i]
	}
	for i := range m.mass {
		m.mass[i] /= total
	}
	return m, nil
}

// BinWidth returns the bin width in degrees.
func (m *Model) BinWidth() float64 { return m.binWidth }

// BinCenters returns the latitude bin centres, south to north.
func (m *Model) BinCenters() []float64 {
	return append([]float64(nil), m.lats...)
}

// PDF returns the per-bin population share as percentages summing to 100,
// aligned with BinCenters — the population series of Figure 3.
func (m *Model) PDF() []float64 {
	out := make([]float64, len(m.mass))
	for i, v := range m.mass {
		out[i] = 100 * v
	}
	return out
}

// FractionAbove returns the share of population with |lat| above the
// threshold — the population baseline of Figure 4.
func (m *Model) FractionAbove(threshold float64) float64 {
	total := 0.0
	for i, lat := range m.lats {
		if math.Abs(lat) > threshold {
			total += m.mass[i]
		}
	}
	return total
}

// ThresholdCurve evaluates FractionAbove at each threshold.
func (m *Model) ThresholdCurve(thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		out[i] = m.FractionAbove(t)
	}
	return out
}

// SampleLat draws a random latitude from the population distribution,
// uniform within the chosen bin.
func (m *Model) SampleLat(rng *xrand.Source) float64 {
	i := rng.Pick(m.mass)
	return m.lats[i] + rng.Range(-m.binWidth/2, m.binWidth/2)
}
