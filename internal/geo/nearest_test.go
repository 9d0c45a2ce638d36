package geo

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// nearestKScan is the brute-force reference: every point's haversine,
// sorted by (distance, index), the first k kept.
func nearestKScan(q Coord, pts []Coord, k, skip int) []int {
	idx := make([]int, 0, len(pts))
	for j := range pts {
		if j != skip {
			idx = append(idx, j)
		}
	}
	d := make([]float64, len(pts))
	for _, j := range idx {
		d[j] = Haversine(q, pts[j])
	}
	sort.SliceStable(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })
	if len(idx) > k {
		idx = idx[:k]
	}
	return idx
}

// nearestByScreen is the single-nearest loop the call sites write around
// a Screen: admitted points are judged by the haversine, ties to the
// lowest index.
func nearestByScreen(q Coord, pts []Coord) int {
	qv := UnitVec(q)
	s := NewScreen()
	best, bestD := -1, math.Inf(1)
	for j, p := range pts {
		if !s.Admit(qv.Dot(UnitVec(p))) {
			continue
		}
		if d := Haversine(q, p); d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

// checkNearest requires NearestK (for k = 1, 2, 3 and len(pts)) and the
// Screen loop to agree with the brute-force scan for query q.
func checkNearest(t *testing.T, label string, q Coord, pts []Coord) {
	t.Helper()
	if err := q.Validate(); err != nil {
		t.Fatalf("%s: query: %v", label, err)
	}
	units := make([]Vec, len(pts))
	for i, p := range pts {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: point %d: %v", label, i, err)
		}
		units[i] = UnitVec(p)
	}
	for _, k := range []int{1, 2, 3, len(pts)} {
		for _, skip := range []int{-1, 0} {
			got := NearestK(nil, q, UnitVec(q), pts, units, k, skip)
			want := nearestKScan(q, pts, k, skip)
			if len(got) != len(want) {
				t.Fatalf("%s, k=%d skip=%d: %v, scan %v", label, k, skip, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, k=%d skip=%d: %v, scan %v", label, k, skip, got, want)
				}
			}
		}
	}
	want := -1
	if s := nearestKScan(q, pts, 1, -1); len(s) > 0 {
		want = s[0]
	}
	if got := nearestByScreen(q, pts); got != want {
		t.Fatalf("%s: screened nearest %d, scan %d", label, got, want)
	}
}

// antipode returns the point opposite c.
func antipode(c Coord) Coord {
	lon := c.Lon + 180
	if lon > 180 {
		lon -= 360
	}
	return Coord{Lat: -c.Lat, Lon: lon}
}

// offset moves c by dLat and dLon degrees, stopping the latitude at the
// poles and folding the longitude into [-180, 180].
func offset(c Coord, dLat, dLon float64) Coord {
	lat, lon := math.Max(-90, math.Min(90, c.Lat+dLat)), c.Lon+dLon
	if lon > 180 {
		lon -= 360
	} else if lon < -180 {
		lon += 360
	}
	return Coord{Lat: lat, Lon: lon}
}

func TestNearestEdgeCases(t *testing.T) {
	q := Coord{Lat: 37.5, Lon: -122.25}
	anti := antipode(q)
	cases := []struct {
		name string
		q    Coord
		pts  []Coord
	}{
		{"empty", q, nil},
		{"coincident with the query", q, []Coord{london, q, q, sydney, q}},
		{"coincident candidates", q, []Coord{sydney, london, london, newYork, london}},
		{"exact antipode", q, []Coord{anti, anti, offset(anti, 1e-9, 0)}},
		{"near antipode, sub-metre spread", q, []Coord{
			offset(anti, 1e-6, 0), offset(anti, 0, 1e-6), offset(anti, -1e-7, 3e-7),
			offset(anti, 2e-7, -2e-7), anti, offset(anti, 5e-6, 5e-6),
		}},
		{"near antipode, kilometre spread", q, []Coord{
			offset(anti, 0.01, 0), offset(anti, 0, 0.01), offset(anti, -0.01, 0), offset(anti, 0.007, 0.007),
		}},
		{"north pole, every longitude", Coord{Lat: 89.999, Lon: 10}, []Coord{
			{Lat: 90, Lon: 0}, {Lat: 90, Lon: 90}, {Lat: 90, Lon: -180}, {Lat: 90, Lon: 180}, {Lat: 89.9999, Lon: -170},
		}},
		{"south pole query", Coord{Lat: -90, Lon: 0}, []Coord{
			{Lat: -89.9999, Lon: 0}, {Lat: -89.9999, Lon: 120}, {Lat: -89.9999, Lon: -120}, {Lat: -90, Lon: 45},
		}},
		{"pole to pole", Coord{Lat: 90, Lon: 0}, []Coord{
			{Lat: -90, Lon: 0}, {Lat: -90, Lon: 180}, {Lat: -89.99999, Lon: 33}, {Lat: -90, Lon: -77},
		}},
		{"across the antimeridian", Coord{Lat: -17.7, Lon: 179.9999}, []Coord{
			{Lat: -17.7, Lon: -179.9999}, {Lat: -17.7, Lon: 179.9997}, {Lat: -17.7, Lon: 180}, {Lat: -17.7, Lon: -180},
		}},
		{"sub-metre separations", q, []Coord{
			offset(q, 1e-6, 0), offset(q, 0, 1e-6), offset(q, -1e-6, 0), offset(q, 0, -1e-6),
			offset(q, 7e-7, 7e-7), offset(q, 1e-8, 0),
		}},
		{"one ring", q, []Coord{
			Destination(q, 0, 100), Destination(q, 90, 100), Destination(q, 180, 100), Destination(q, 270, 100),
			Destination(q, 45, 100), Destination(q, 135, 100),
		}},
	}
	for _, c := range cases {
		checkNearest(t, c.name, c.q, c.pts)
	}
}

// TestNearestKFewerPointsThanK asks for more neighbours than exist.
func TestNearestKFewerPointsThanK(t *testing.T) {
	pts := []Coord{london, sydney}
	units := []Vec{UnitVec(london), UnitVec(sydney)}
	if got := NearestK(nil, quito, UnitVec(quito), pts, units, 5, -1); len(got) != 2 || got[0] != 0 {
		t.Fatalf("NearestK = %v, want [0 1]", got)
	}
	if got := NearestK([]int{9}, quito, UnitVec(quito), pts, units, 0, -1); len(got) != 1 {
		t.Fatalf("k=0 appended to dst: %v", got)
	}
}

// TestUnitVecDotIsCosine checks the dot product against the law of
// cosines on the known cities.
func TestUnitVecDotIsCosine(t *testing.T) {
	cities := []Coord{london, newYork, singapre, sydney, quito}
	for _, a := range cities {
		if n := UnitVec(a).Dot(UnitVec(a)); math.Abs(n-1) > 1e-15 {
			t.Fatalf("|UnitVec(%v)|^2 = %v", a, n)
		}
		for _, b := range cities {
			want := math.Cos(Haversine(a, b) / EarthRadiusKm)
			if got := UnitVec(a).Dot(UnitVec(b)); math.Abs(got-want) > 1e-12 {
				t.Fatalf("dot(%v, %v) = %v, cos = %v", a, b, got, want)
			}
		}
	}
}

// fuzzPoints decodes a point set and a query from raw bytes. Each point
// is either a fresh coordinate, a copy of an earlier point, a sub-metre
// or kilometre step from one, a point near the query or its antipode, or
// a pole, so ties and near-ties are common.
func fuzzPoints(data []byte) (Coord, []Coord) {
	next := func() uint16 {
		if len(data) < 2 {
			data = nil
			return 0
		}
		v := binary.LittleEndian.Uint16(data)
		data = data[2:]
		return v
	}
	lat := func(v uint16) float64 { return float64(v)/65535*180 - 90 }
	lon := func(v uint16) float64 { return float64(v)/65535*360 - 180 }
	q := Coord{Lat: lat(next()), Lon: lon(next())}
	var pts []Coord
	for len(data) >= 2 && len(pts) < 64 {
		kind := next()
		switch kind % 8 {
		case 0, 1:
			pts = append(pts, Coord{Lat: lat(next()), Lon: lon(next())})
		case 2:
			if len(pts) > 0 {
				pts = append(pts, pts[int(next())%len(pts)])
			}
		case 3:
			if len(pts) > 0 {
				p := pts[int(next())%len(pts)]
				pts = append(pts, offset(p, float64(int8(kind>>8))*1e-7, float64(int8(kind>>4))*1e-7))
			}
		case 4:
			pts = append(pts, offset(antipode(q), float64(int8(kind>>8))*1e-7, float64(int8(kind>>4))*1e-7))
		case 5:
			pts = append(pts, offset(q, float64(int8(kind>>8))*1e-3, float64(int8(kind>>4))*1e-3))
		case 6:
			pts = append(pts, Coord{Lat: 90 * float64(1-2*int(kind>>15)), Lon: lon(next())})
		case 7:
			pts = append(pts, Coord{Lat: lat(next()), Lon: 180 * float64(1-2*int(kind>>15))})
		}
	}
	return q, pts
}

// FuzzNearest holds NearestK and the Screen loop to the brute-force scan
// over arbitrary point sets.
func FuzzNearest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 128, 0, 128, 4, 1, 4, 2, 12, 255, 20, 9, 2, 0, 3, 0})
	f.Add([]byte{255, 255, 0, 0, 6, 0, 6, 128, 0, 0, 7, 0, 7, 128, 2, 1})
	f.Add([]byte{10, 20, 30, 40, 5, 5, 5, 250, 13, 7, 11, 3, 2, 2, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, pts := fuzzPoints(data)
		checkNearest(t, "fuzz", q, pts)
	})
}
