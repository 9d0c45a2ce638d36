package xrand_test

import (
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// BenchmarkBelowInto times the dense draw loop alone on the dense cables
// of real plans — ITU at p=0.2 and 50 km (thousands of cables, dozens per
// word), ITU at p=0.5 and 100 km, and the submarine map under S1 at
// 150 km (a few hundred, spread thin) — through the kernel BelowInto
// selects ("kernel") and through the Go loop ("go"). ns/cable is the
// time per dense cable; on hosts without the vector kernel the two
// measure the same loop.
func BenchmarkBelowInto(b *testing.B) {
	w, err := dataset.Default()
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name      string
		net       *topology.Network
		model     failure.Model
		spacingKm float64
	}{
		{"itu-p0.2-50km", w.ITU, failure.Uniform{P: 0.2}, 50},
		{"itu-p0.5-100km", w.ITU, failure.Uniform{P: 0.5}, 100},
		{"submarine-s1-150km", w.Submarine, failure.S1(), 150},
	}
	for _, c := range cases {
		plan, err := failure.Compile(c.net, c.model, c.spacingKm)
		if err != nil {
			b.Fatal(err)
		}
		words, thr := plan.DenseDraws()
		cables := len(thr) - xrand.BelowPad
		dead := plan.NewDead()
		for _, form := range []struct {
			name string
			run  func(s *xrand.Source)
		}{
			{"kernel", func(s *xrand.Source) { s.BelowInto(dead, words, thr) }},
			{"go", func(s *xrand.Source) { s.BelowIntoGo(dead, words, thr) }},
		} {
			b.Run(c.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				s := xrand.New(dataset.DefaultSeed)
				for i := 0; i < b.N; i++ {
					form.run(s)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cables), "ns/cable")
			})
		}
	}
}
