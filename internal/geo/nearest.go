package geo

import "math"

// Vec is a point on the unit sphere in Earth-centred Cartesian
// coordinates. The dot product of two Vecs is the cosine of the central
// angle between their points, so a nearest-point search can rank
// candidates with three multiplications instead of a haversine.
type Vec struct{ X, Y, Z float64 }

// UnitVec returns c as a unit vector.
func UnitVec(c Coord) Vec {
	lat, lon := radians(c.Lat), radians(c.Lon)
	cl := math.Cos(lat)
	return Vec{X: cl * math.Cos(lon), Y: cl * math.Sin(lon), Z: math.Sin(lat)}
}

// Dot returns v·w, the cosine of the angle between v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// ScreenMargin is how far below the best dot product so far a candidate's
// dot product must fall before a nearest-point search may skip it without
// evaluating its exact metric.
//
// The margin has to cover two float errors, with u = 2^-53:
//
//   - The dot product. Each component of a computed unit vector is within
//     about 25u of the exact one (the degree-to-radian conversion, one
//     sin or cos, one product), so a computed dot is within E_d ≈ 160u ≈
//     2e-14 of the true cosine cos θ.
//   - The exact metric. geo.Haversine computes θ = 2·asin(√s) with
//     s = sin²(Δφ/2) + cos φ1·cos φ2·sin²(Δλ/2), and s carries an absolute
//     error e_s of a few tens of u. As ds/dθ = sin θ / 2, that is an angle
//     error of about 2·e_s/sin θ: small near θ = 0 (where the error in s
//     shrinks with s) but unbounded in slope at θ = π, the antipodal case,
//     where it saturates at 2·√e_s ≈ 1.3e-7 rad (about 1 m). That is the
//     tight case. The spherical law of cosines (crosslayer's metric) is a
//     dot product itself, good to tens of u.
//
// Suppose candidate c is skipped because dot(c) < dot(b) - M for some
// candidate b that was evaluated. Then cos θ_b - cos θ_c > M - 2·E_d, and
// since |d cos θ/dθ| ≤ 1, θ_c - θ_b > M - 2·E_d. With the haversine's
// worst error of 1.3e-7 rad at either end, the computed haversines differ
// by more than R·(M - 2·E_d - 2.6e-7), which is positive whenever M >
// 2.6e-7 + 4e-14. M = 1e-6 leaves a gap of at least 4 m on the 6371 km
// sphere: c's exact metric is strictly worse than b's, so c can be neither
// the nearest point nor tied with it, whatever tie rule the caller
// applies, and monotone post-processing of the metric (a ÷10 weight, a
// ×1.22 detour) cannot close a 4 m gap at any distance on Earth.
//
// The bound is loose on purpose. The haversine is coarse only near θ = π,
// where cos θ is flat, so there a dot gap Δ is an angle gap of Δ/sin θ
// against an error of 2·e_s/sin θ, and Δ > 4·e_s + 2·E_d (about 1e-13)
// would do. The slack costs a few extra exact evaluations per query: at a
// typical nearest distance of 50 km, the candidates within about 1 km of
// the best.
//
// The screen never decides the answer: every candidate it keeps is judged
// by the caller's own formula and tie rule, so the chosen point and its
// distance are bit-identical to a full scan. A NaN dot never compares
// below anything, so a NaN point is always kept and judged exactly.
const ScreenMargin = 1e-6

// Screen is an exact nearest-point filter for one query. It keeps the
// largest dot product it has admitted, less ScreenMargin; start from
// NewScreen.
type Screen struct{ floor float64 }

// NewScreen returns a screen that has admitted no candidate yet.
func NewScreen() Screen { return Screen{floor: math.Inf(-1)} }

// Admit reports whether a candidate whose unit vector has dot product dot
// with the query may still be the nearest point (or tie with it), and if
// so raises the screen's floor to dot - ScreenMargin. A false answer
// proves that some admitted candidate is strictly nearer by any exact
// metric of the great-circle distance (see ScreenMargin); the caller must
// evaluate every admitted candidate with its exact metric.
func (s *Screen) Admit(dot float64) bool {
	if dot < s.floor {
		return false
	}
	if f := dot - ScreenMargin; f > s.floor {
		s.floor = f
	}
	return true
}

// neighbour is one admitted candidate of NearestK.
type neighbour struct {
	index     int
	dist, dot float64
}

// NearestK appends to dst the indices of the k points of pts nearest to q
// by geo.Haversine, nearest first, ties to the lower index, and returns
// the extended slice. Index skip (pass -1 for none) is never returned.
// units must hold UnitVec of every point and qv UnitVec(q); coordinates
// must lie in the valid range. Fewer than k indices are appended when pts
// has fewer candidates.
//
// A point is evaluated only when its dot product with q is within
// ScreenMargin of the k-th largest dot among the current k nearest: below
// that, all k of them are strictly nearer.
func NearestK(dst []int, q Coord, qv Vec, pts []Coord, units []Vec, k, skip int) []int {
	if k <= 0 {
		return dst
	}
	best := make([]neighbour, 0, k+1) // ascending (dist, index)
	floor := math.Inf(-1)             // smallest dot in best once it is full
	for j := range pts {
		if j == skip {
			continue
		}
		dot := qv.Dot(units[j])
		if len(best) == k && dot < floor-ScreenMargin {
			continue
		}
		d := Haversine(q, pts[j])
		pos := len(best)
		for pos > 0 && d < best[pos-1].dist {
			pos-- // equal distances keep the earlier, lower index first
		}
		if pos == k {
			continue
		}
		best = append(best, neighbour{})
		copy(best[pos+1:], best[pos:])
		best[pos] = neighbour{index: j, dist: d, dot: dot}
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			floor = math.Inf(1)
			for _, b := range best {
				floor = math.Min(floor, b.dot)
			}
		}
	}
	for _, b := range best {
		dst = append(dst, b.index)
	}
	return dst
}
