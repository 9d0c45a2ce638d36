package main

import (
	"math"

	"gicnet/internal/geo"
	"gicnet/internal/topology"
)

// The answer checks below are computed here from the networks' raw
// fields (segment lengths, node coordinates, countries), not through the
// program's own probability or reachability helpers, so a fault in those
// helpers shows up as a disagreement.

// repeaters is the number of full spacing intervals along a cable of the
// given length, computed in floating point so that no spacing, however
// small, overflows it.
func repeaters(lengthKm, spacingKm float64) float64 {
	return math.Floor(lengthKm / spacingKm)
}

// deathProb is 1-(1-p)^r: the chance that at least one of r repeaters of
// failure probability p dies.
func deathProb(p, r float64) float64 {
	switch {
	case r <= 0 || p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	return -math.Expm1(r * math.Log1p(-p))
}

// cableLength sums a cable's segment lengths.
func cableLength(c *topology.Cable) float64 {
	total := 0.0
	for _, s := range c.Segments {
		total += s.LengthKm
	}
	return total
}

// cableBand is the risk band of a cable's highest-latitude endpoint, and
// false when no endpoint has a coordinate.
func cableBand(net *topology.Network, ci int) (geo.Band, bool) {
	maxAbs := -1.0
	for _, s := range net.Cables[ci].Segments {
		for _, ni := range [2]int{s.A, s.B} {
			if nd := net.Nodes[ni]; nd.HasCoord && math.Abs(nd.Coord.Lat) > maxAbs {
				maxAbs = math.Abs(nd.Coord.Lat)
			}
		}
	}
	if maxAbs < 0 {
		return geo.BandLow, false
	}
	return bandOf(maxAbs), true
}

// bandOf maps an absolute latitude to the paper's three bands.
func bandOf(absLat float64) geo.Band {
	switch {
	case absLat >= geo.HighBandCut:
		return geo.BandHigh
	case absLat >= geo.MidBandCut:
		return geo.BandMid
	}
	return geo.BandLow
}

// cableProbs returns every cable's exact death probability under a
// per-cable repeater probability.
func cableProbs(net *topology.Network, spacingKm float64, repeaterProb func(ci int) float64) []float64 {
	out := make([]float64, len(net.Cables))
	for ci := range net.Cables {
		out[ci] = deathProb(repeaterProb(ci), repeaters(cableLength(&net.Cables[ci]), spacingKm))
	}
	return out
}

// uniformProbs is cableProbs for the uniform model.
func uniformProbs(net *topology.Network, p, spacingKm float64) []float64 {
	return cableProbs(net, spacingKm, func(int) float64 { return p })
}

// tieredProbs is cableProbs for a latitude-tiered model; cables without
// located endpoints take the low band, as the paper does for ITU.
func tieredProbs(net *topology.Network, probs [geo.NumBands]float64, spacingKm float64) []float64 {
	return cableProbs(net, spacingKm, func(ci int) float64 {
		band, _ := cableBand(net, ci)
		return probs[band]
	})
}

// cableFracMoments returns the exact mean of the dead-cable fraction and
// the standard error of a t-trial Monte Carlo estimate of it. Cable deaths
// are independent, so the per-trial variance is sum q(1-q) / n^2.
func cableFracMoments(q []float64, trials int) (mean, se float64) {
	if len(q) == 0 || trials <= 0 {
		return 0, 0
	}
	var sum, v float64
	for _, x := range q {
		sum += x
		v += x * (1 - x)
	}
	n := float64(len(q))
	return sum / n, math.Sqrt(v) / n / math.Sqrt(float64(trials))
}

// tailAtLeast2 is the exact Poisson-binomial probability that two or more
// of the independent events with probabilities q occur. It carries the
// masses of "none", "exactly one" and "two or more" through the product,
// so small tails lose no precision to cancellation.
func tailAtLeast2(q []float64) float64 {
	none, one, more := 1.0, 0.0, 0.0
	for _, x := range q {
		more += one * x
		one = one*(1-x) + none*x
		none *= 1 - x
	}
	return more
}

// isolatedByLoss counts the nodes that have at least one cable and lose
// every one of them when the cables in lost are cut.
func isolatedByLoss(net *topology.Network, lost map[int]bool) int {
	live := make([]int, len(net.Nodes))
	any := make([]bool, len(net.Nodes))
	for ci := range net.Cables {
		seen := map[int]bool{}
		for _, s := range net.Cables[ci].Segments {
			for _, ni := range [2]int{s.A, s.B} {
				if seen[ni] {
					continue
				}
				seen[ni] = true
				any[ni] = true
				if !lost[ci] {
					live[ni]++
				}
			}
		}
	}
	n := 0
	for i := range net.Nodes {
		if any[i] && live[i] == 0 {
			n++
		}
	}
	return n
}

// targetNodes resolves a country code or "region:<name>" target to node
// indices of net.
func targetNodes(net *topology.Network, target string) map[int]bool {
	out := map[int]bool{}
	const prefix = "region:"
	for i, nd := range net.Nodes {
		if len(target) > len(prefix) && target[:len(prefix)] == prefix {
			if nd.HasCoord && string(geo.RegionOf(nd.Coord)) == target[len(prefix):] {
				out[i] = true
			}
		} else if nd.Country == target {
			out[i] = true
		}
	}
	return out
}

// directAllDead is one minus the paper's §4.3.4 direct metric: the
// probability that every cable landing in both node sets dies (1 when no
// cable does).
func directAllDead(net *topology.Network, q []float64, from, to map[int]bool) float64 {
	allDead := 1.0
	for ci := range net.Cables {
		touchFrom, touchTo := false, false
		for _, s := range net.Cables[ci].Segments {
			touchFrom = touchFrom || from[s.A] || from[s.B]
			touchTo = touchTo || to[s.A] || to[s.B]
		}
		if touchFrom && touchTo {
			allDead *= q[ci]
		}
	}
	return allDead
}

// binomialTailAtLeast is P(X >= k) for X ~ Binomial(n, p), summed exactly
// in log space, so it stays meaningful for the rare counts where a normal
// approximation does not.
func binomialTailAtLeast(n, k int, p float64) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n || p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	lp, lq := math.Log(p), math.Log1p(-p)
	sum := 0.0
	for j := k; j <= n; j++ {
		lgJ, _ := math.Lgamma(float64(j + 1))
		lgR, _ := math.Lgamma(float64(n - j + 1))
		sum += math.Exp(lgN - lgJ - lgR + float64(j)*lp + float64(n-j)*lq)
	}
	return math.Min(sum, 1)
}
