package main

import "testing"

// The expected cut points are Python's statistics.quantiles(v, n=4),
// which the run-to-run comparison uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9.0}, [3]float64{1.25, 3.5, 9.0}},
		{[]float64{2, 2}, [3]float64{2, 2, 2}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.1, 0.7, 0.2, 0.9}, [3]float64{0.125, 0.44999999999999996, 0.8500000000000001}},
		{[]float64{10, 1, 7.5, 3.25, 8, 2, 6, 4.5, 9.5, 5, 0.5}, [3]float64{2, 5, 8}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok {
			t.Fatalf("quartiles(%v) refused", c.in)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should be refused")
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	a, b := newStream(7, 'Q', 1), newStream(7, 'Q', 1)
	c := newStream(8, 'Q', 1)
	same, differ := true, false
	for i := 0; i < 8; i++ {
		x, y, z := a.next(), b.next(), c.next()
		same = same && x == y
		differ = differ || x != z
	}
	if !same || !differ {
		t.Errorf("streams: same seed equal %v, other seed differs %v", same, differ)
	}
	for i := 0; i < 1000; i++ {
		if v := a.intn(3); v < 0 || v >= 3 {
			t.Fatalf("intn(3) = %d", v)
		}
	}
}

func TestParseCPULine(t *testing.T) {
	steal, busy, ok := parseCPULine("cpu  158001 3 6825 1261702 2817 7 3246 22802 0 0")
	if !ok || steal != 22802 || busy != 158001+3+6825+7+3246+22802 {
		t.Errorf("parseCPULine = %d, %d, %v", steal, busy, ok)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 x 4 5 6 7 8"} {
		if _, _, ok := parseCPULine(bad); ok {
			t.Errorf("parseCPULine(%q) accepted", bad)
		}
	}
}

func TestStopwatchNeverExceedsWall(t *testing.T) {
	sw := startWatch()
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	granted, wall := sw.elapsed()
	if granted > wall || granted < 0 || x == 0 {
		t.Errorf("granted %v, wall %v", granted, wall)
	}
}
