package crosslayer

import (
	"fmt"
	"math"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/routing"
	"gicnet/internal/topology"
)

// fuzzReader consumes the fuzz byte stream, yielding zeros when dry.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// worldFromBytes decodes an arbitrary byte string into a (possibly
// degenerate) world: malformed AS homes, coordinate-free nodes, empty
// catalogs, zero-cable networks, zero-demand matrices.
func worldFromBytes(r *fuzzReader) (*topology.Network, *dataset.RouterCatalog, []routing.Demand) {
	numNodes := 1 + int(r.byte())%16
	net := &topology.Network{Name: "fuzz"}
	for i := 0; i < numNodes; i++ {
		lat := float64(int8(r.byte())) * 0.75 // [-96, 95.25]: sometimes invalid
		lon := float64(int8(r.byte())) * 1.5
		net.Nodes = append(net.Nodes, topology.Node{
			Name:     fmt.Sprintf("n%d", i),
			Coord:    geo.Coord{Lat: lat, Lon: lon},
			HasCoord: r.byte()%4 != 0,
			Country:  "xx",
		})
	}
	numCables := int(r.byte()) % 20 // may be zero
	for c := 0; c < numCables; c++ {
		cable := topology.Cable{Name: fmt.Sprintf("c%d", c), KnownLength: true}
		segs := 1 + int(r.byte())%3
		for s := 0; s < segs; s++ {
			cable.Segments = append(cable.Segments, topology.Segment{
				A:        int(r.byte()) % numNodes,
				B:        int(r.byte()) % numNodes, // self-loops welcome
				LengthKm: float64(r.byte()) * 40,
			})
		}
		net.Cables = append(net.Cables, cable)
	}
	numAS := int(r.byte()) % 12 // may be zero -> ErrNoASes
	cat := &dataset.RouterCatalog{}
	for a := 0; a < numAS; a++ {
		home := geo.Coord{
			Lat: float64(int8(r.byte())), // [-128, 127]: poles and invalid latitudes
			Lon: float64(int8(r.byte())) * 2,
		}
		cat.ASes = append(cat.ASes, dataset.AS{ASN: 64512 + a, Home: home, Routers: []geo.Coord{home}})
	}
	var demands []routing.Demand
	switch r.byte() % 4 {
	case 0:
		demands = nil // ErrZeroDemand
	case 1:
		demands = []routing.Demand{{From: geo.RegionEurope, To: geo.RegionAsia, Volume: 0}}
	default:
		demands = routing.DefaultDemands()
	}
	return net, cat, demands
}

// FuzzCableASAdjacency fuzzes the CSR builder and both scoring paths over
// degenerate worlds: Compile must never panic and must attach every AS
// where the all-pairs scan does, and when it succeeds the scores must
// satisfy the structural invariants (bounded shares, pair counts monotone
// under growing dead sets, batched ≡ scalar over a block of those sets).
func FuzzCableASAdjacency(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 10, 20, 1, 30, 40, 1, 5, 60, 2, 1, 0, 1, 100, 2, 3, 50, 80, 2})
	f.Add([]byte{15, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 19, 2, 0, 1, 255, 11, 127, 127})
	f.Add([]byte{8, 90, 0, 1, 45, 45, 1, 200, 100, 0, 250, 5, 2, 0, 1, 40, 1, 2, 80, 3, 90, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		net, cat, demands := worldFromBytes(r)
		// The screened AS attachment must match the all-pairs scan, on
		// the intact network and with every cable dead.
		allDead := graph.NewBitset(len(net.Cables))
		allDead.SetRange(0, len(net.Cables))
		if err := sameAsScan(net, cat, demands, []graph.Bitset{allDead}); err != nil {
			t.Fatal(err)
		}
		x, err := Compile(net, cat, demands)
		if err != nil {
			return // degenerate world rejected with a typed error: fine
		}
		total := x.TotalASes()
		maxPairs := total * (total - 1) / 2

		check := func(label string, sc Score) {
			if sc.ReachablePairs < 0 || sc.ReachablePairs > maxPairs {
				t.Fatalf("%s: pairs %d outside [0, %d]", label, sc.ReachablePairs, maxPairs)
			}
			if sc.StrandedASes < 0 || sc.StrandedASes > total {
				t.Fatalf("%s: stranded ASes %d outside [0, %d]", label, sc.StrandedASes, total)
			}
			if sc.StrandedShare < -1e-9 || sc.StrandedShare > 1+1e-9 || math.IsNaN(sc.StrandedShare) {
				t.Fatalf("%s: stranded share %v outside [0, 1]", label, sc.StrandedShare)
			}
			if math.IsNaN(sc.DemandWeighted) {
				t.Fatalf("%s: demand-weighted is NaN", label)
			}
		}
		check("intact", x.Intact())

		var s Scratch
		s.Grow(x)
		numCables := len(net.Cables)
		dead := graph.NewBitset(numCables)

		// Every dead set below also becomes one row of a block (up to
		// failure.MaxBatch rows), which the batched path must score
		// exactly as the scalar one: nested dead sets give the block's
		// forest edges that die in some trials and live in others.
		var batch failure.BatchScratch
		rows := 0
		addRow := func() {}
		if numCables > 0 {
			plan, err := failure.Compile(net, failure.Uniform{P: 0.5}, 100)
			if err != nil {
				return
			}
			batch.Grow(plan)
			addRow = func() {
				if rows < failure.MaxBatch {
					copy(batch.Row(rows), dead)
					rows++
				}
			}
		}

		// Grow the dead set one cable at a time, driven by input bytes:
		// reachable pairs must never increase, stranding never decrease.
		prev := x.ScoreDead(dead, &s)
		if !scoresBitIdentical(prev, x.Intact()) {
			t.Fatalf("empty mask score %+v != intact %+v", prev, x.Intact())
		}
		addRow()
		for ci := 0; ci < numCables; ci++ {
			if r.byte()%2 == 0 {
				continue
			}
			dead.Set(ci)
			addRow()
			sc := x.ScoreDead(dead, &s)
			check("grown", sc)
			if sc.ReachablePairs > prev.ReachablePairs {
				t.Fatalf("pairs grew %d -> %d after killing cable %d",
					prev.ReachablePairs, sc.ReachablePairs, ci)
			}
			if sc.StrandedASes < prev.StrandedASes {
				t.Fatalf("stranded shrank %d -> %d after killing cable %d",
					prev.StrandedASes, sc.StrandedASes, ci)
			}
			prev = sc
		}

		// All-dead mask.
		if numCables > 0 {
			dead.SetRange(0, numCables)
			addRow()
			check("all-dead", x.ScoreDead(dead, &s))
		}

		// Batched ≡ scalar, row by row.
		if rows > 0 {
			var out [failure.MaxBatch]Score
			x.ScoreBatch(&batch, rows, out[:], &s)
			for b := 0; b < rows; b++ {
				if want := x.ScoreDead(batch.Row(b), &s); !scoresBitIdentical(out[b], want) {
					t.Fatalf("row %d of %d: batch %+v != scalar %+v", b, rows, out[b], want)
				}
			}
		}
	})
}
