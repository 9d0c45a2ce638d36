package main

import (
	"sort"

	"gicnet/internal/stats"
)

// quartiles returns the three cut points that Python's
// statistics.quantiles(values, n=4) returns with its default "exclusive"
// method, so the spreads printed here match the ones the run-to-run
// comparison computes. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	m := len(values)
	if m < 2 {
		return 0, 0, 0, false
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	var cut [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		cut[i-1] = (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut[0], cut[1], cut[2], true
}

// median is stats.Median, or 0 for no values: a workload that does not
// reach a layer reports 0 for it.
func median(values []float64) float64 {
	m, _ := stats.Median(values)
	return m
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// mix64 is the splitmix64 finaliser. Every input the benchmark draws comes
// from streams keyed by (seed, purpose, index) through it, so one --seed
// fixes every workload input without sharing state between workloads.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive keys a sub-seed on the run seed and a list of labels.
func derive(seed uint64, labels ...uint64) uint64 {
	h := mix64(seed)
	for _, l := range labels {
		h = mix64(h ^ l)
	}
	return h
}

// stream is a small deterministic generator for picking workload inputs.
type stream struct{ state uint64 }

func newStream(seed uint64, labels ...uint64) *stream {
	return &stream{state: derive(seed, labels...)}
}

func (s *stream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// intn returns a value in [0, n).
func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }
