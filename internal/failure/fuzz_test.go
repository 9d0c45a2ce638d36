package failure

import (
	"fmt"
	"math"
	"testing"

	"gicnet/internal/geo"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// fuzzNetwork deterministically grows a random network from a seed: up to
// 32 nodes and 48 cables with random (possibly zero-length, possibly
// multi-segment) geometry. Every generated network passes Validate.
func fuzzNetwork(seed uint64, nodes, cables int) *topology.Network {
	rng := xrand.New(seed)
	if nodes < 2 {
		nodes = 2
	}
	if nodes > 32 {
		nodes = 32
	}
	if cables < 0 {
		cables = 0
	}
	if cables > 48 {
		cables = 48
	}
	net := &topology.Network{Name: fmt.Sprintf("fuzz-%d", seed)}
	for i := 0; i < nodes; i++ {
		net.Nodes = append(net.Nodes, topology.Node{
			Name:     fmt.Sprintf("n%d", i),
			Coord:    geo.Coord{Lat: rng.Range(-90, 90), Lon: rng.Range(-180, 180)},
			HasCoord: rng.Bool(0.8),
		})
	}
	for c := 0; c < cables; c++ {
		cable := topology.Cable{Name: fmt.Sprintf("c%d", c), KnownLength: rng.Bool(0.9)}
		segments := 1 + rng.Intn(3)
		for s := 0; s < segments; s++ {
			cable.Segments = append(cable.Segments, topology.Segment{
				A:        rng.Intn(nodes),
				B:        rng.Intn(nodes),
				LengthKm: rng.Range(0, 30000),
			})
		}
		net.Cables = append(net.Cables, cable)
	}
	return net
}

// FuzzPlanCompile drives Plan compilation over random networks, spacings
// and model probabilities. Properties: Compile refuses exactly the
// spacings CheckSpacing refuses (NaN, infinite, below 1 km); on a valid
// network and spacing it always succeeds and yields a plan that (a) passes
// Validate, (b) samples bit-identically to the uncompiled path, and
// (c) evaluates to the same outcome as the uncompiled path.
func FuzzPlanCompile(f *testing.F) {
	f.Add(uint64(1), 5, 8, 150.0, 0.01)
	f.Add(uint64(1859), 32, 48, 50.0, 0.999)
	f.Add(uint64(7), 2, 0, 100.0, 0.0) // no cables at all
	f.Add(uint64(9), 3, 4, 0.0, 0.5)   // invalid spacing
	f.Add(uint64(11), 4, 4, -20.0, 1.0)
	f.Add(uint64(13), 30, 40, 1e-9, 0.25) // pathological spacing: huge repeater counts
	f.Add(uint64(15), 8, 12, math.NaN(), 0.5)
	f.Add(uint64(17), 8, 12, 0.999, 0.5) // just below the 1 km floor
	f.Add(uint64(19), 8, 12, 1.0, 0.5)   // the floor itself is valid

	f.Fuzz(func(t *testing.T, seed uint64, nodes, cables int, spacing, p float64) {
		net := fuzzNetwork(seed, nodes, cables)
		if err := net.Validate(); err != nil {
			t.Fatalf("fuzz generator produced invalid network: %v", err)
		}
		if math.IsNaN(p) || p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		model := Uniform{P: p}

		plan, err := Compile(net, model, spacing)
		if CheckSpacing(spacing) != nil {
			if err == nil {
				t.Fatalf("Compile accepted spacing %v", spacing)
			}
			return
		}
		if err != nil {
			t.Fatalf("Compile(%d nodes, %d cables, spacing %v): %v",
				len(net.Nodes), len(net.Cables), spacing, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("compiled plan invalid: %v", err)
		}
		for ci, prob := range plan.DeathProbs() {
			want, err := CableDeathProb(net, model, spacing, ci)
			if err != nil {
				t.Fatal(err)
			}
			if prob != want {
				t.Fatalf("cable %d: plan prob %v != direct prob %v", ci, prob, want)
			}
		}
		// Same seed, both sampling paths: identical masks and outcomes.
		// The dense sampler is the draw-for-draw twin of the uncompiled
		// path; the sparse sampler draws differently but its realisations
		// must evaluate identically through both evaluators.
		rngPlan := xrand.New(seed ^ 0xf)
		rngDirect := xrand.New(seed ^ 0xf)
		dead := plan.NewDead()
		plan.SampleDense(dead, rngPlan)
		direct, err := sampleCableDeaths(net, model, spacing, rngDirect)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range net.Cables {
			if dead.Get(ci) != direct.Get(ci) {
				t.Fatalf("cable %d: plan sampling disagrees with direct sampling", ci)
			}
		}
		po, fo := plan.Evaluate(dead), referenceEvaluate(net, direct)
		if po != fo {
			t.Fatalf("plan outcome %+v != direct outcome %+v", po, fo)
		}
		if po.CableFrac < 0 || po.CableFrac > 1 || po.NodeFrac < 0 || po.NodeFrac > 1 {
			t.Fatalf("outcome fractions out of range: %+v", po)
		}
		rngSparse := xrand.New(seed ^ 0x5a)
		plan.SampleInto(dead, rngSparse)
		if po, fo := plan.Evaluate(dead), referenceEvaluate(net, dead); po != fo {
			t.Fatalf("sparse realisation: plan outcome %+v != direct outcome %+v", po, fo)
		}
	})
}
