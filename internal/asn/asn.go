// Package asn analyses Autonomous System exposure to solar superstorms
// (the paper's §4.4.1 / Figure 9): how many ASes have a presence in the
// vulnerable high-latitude region, and how geographically spread each AS
// is. Spread matters because a wide AS is likely to be directly hit or
// indirectly hit within one hop; a compact low-latitude AS is insulated.
package asn

import (
	"errors"

	"gicnet/internal/dataset"
	"gicnet/internal/geo"
	"gicnet/internal/stats"
)

// Exposure classifies an AS's storm exposure.
type Exposure int

// Exposure classes, from safest to most exposed.
const (
	// ExposureLow: no routers above the risk latitude and compact spread.
	ExposureLow Exposure = iota
	// ExposureIndirect: compact but with presence above the threshold, or
	// wide without such presence — likely affected within one hop.
	ExposureIndirect
	// ExposureDirect: wide spread and presence above the threshold.
	ExposureDirect
)

// String names the exposure class.
func (e Exposure) String() string {
	switch e {
	case ExposureLow:
		return "low"
	case ExposureIndirect:
		return "indirect"
	case ExposureDirect:
		return "direct"
	default:
		return "unknown"
	}
}

// WideSpreadDeg is the latitude spread above which an AS stops being
// "geographically restricted to a smaller area" (the paper's Fig 9b tail;
// 90% of ASes are under ~18 degrees).
const WideSpreadDeg = 18.0

// Classify returns the exposure class of one AS at the given latitude
// threshold.
func Classify(as *dataset.AS, threshold float64) Exposure {
	present := as.PresenceAbove(threshold)
	wide := as.LatitudeSpread() > WideSpreadDeg
	switch {
	case present && wide:
		return ExposureDirect
	case present || wide:
		return ExposureIndirect
	default:
		return ExposureLow
	}
}

// Summary aggregates the Figure 9 analysis over a catalog.
type Summary struct {
	// Thresholds and ReachFrac form the Fig 9a curve.
	Thresholds []float64
	ReachFrac  []float64
	// SpreadCDF is the Fig 9b curve.
	SpreadCDF *stats.CDF
	// MedianSpreadDeg and P90SpreadDeg are the quantiles the paper quotes
	// (1.723 and 18.263 degrees).
	MedianSpreadDeg float64
	P90SpreadDeg    float64
	// ReachAbove40 is the fraction of ASes with presence above 40 (the
	// paper reports 57%).
	ReachAbove40 float64
	// ByExposure counts ASes per exposure class at threshold 40.
	ByExposure map[Exposure]int
}

// Analyze computes the Figure 9 summary.
func Analyze(cat *dataset.RouterCatalog) (*Summary, error) {
	if cat == nil || len(cat.ASes) == 0 {
		return nil, errors.New("asn: empty catalog")
	}
	thresholds := geo.DefaultThresholds()
	reach := cat.ASReachCurve(thresholds)
	spread := cat.SpreadSample()
	cdf, err := stats.NewCDF(spread)
	if err != nil {
		return nil, err
	}
	med, err := stats.Percentile(spread, 50)
	if err != nil {
		return nil, err
	}
	p90, err := stats.Percentile(spread, 90)
	if err != nil {
		return nil, err
	}
	s := &Summary{
		Thresholds:      thresholds,
		ReachFrac:       reach,
		SpreadCDF:       cdf,
		MedianSpreadDeg: med,
		P90SpreadDeg:    p90,
		ByExposure:      make(map[Exposure]int),
	}
	for i := range cat.ASes {
		s.ByExposure[Classify(&cat.ASes[i], geo.MidBandCut)]++
	}
	for i, t := range thresholds {
		//gicnet:allow floatcmp thresholds carry small integer literals; 40 is exact
		if t == 40 {
			s.ReachAbove40 = reach[i]
		}
	}
	return s, nil
}

// SpreadPoints samples n points of the spread CDF for plotting (Fig 9b).
func (s *Summary) SpreadPoints(n int) []stats.Point {
	return s.SpreadCDF.Points(n)
}
