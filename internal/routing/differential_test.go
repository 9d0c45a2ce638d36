package routing

import (
	"container/heap"
	"fmt"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// boolsOf unpacks a dead set for the reference; nil stays nil (intact).
func boolsOf(dead graph.Bitset, n int) []bool {
	if dead == nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = dead.Get(i)
	}
	return out
}

// sameReport compares two routing reports exactly: every segment load and
// the stranded volume with ==.
func sameReport(got, want *Report) error {
	if len(got.SegmentLoad) != len(want.SegmentLoad) || len(got.SegmentCable) != len(want.SegmentCable) {
		return fmt.Errorf("shape %d/%d segments, want %d/%d",
			len(got.SegmentLoad), len(got.SegmentCable), len(want.SegmentLoad), len(want.SegmentCable))
	}
	for i := range want.SegmentLoad {
		if got.SegmentLoad[i] != want.SegmentLoad[i] || got.SegmentCable[i] != want.SegmentCable[i] {
			return fmt.Errorf("segment %d: load %v on cable %d, want %v on cable %d",
				i, got.SegmentLoad[i], got.SegmentCable[i], want.SegmentLoad[i], want.SegmentCable[i])
		}
	}
	if got.Stranded != want.Stranded || got.Total != want.Total {
		return fmt.Errorf("stranded %v of %v, want %v of %v", got.Stranded, got.Total, want.Stranded, want.Total)
	}
	return nil
}

// TestRouteMatchesReference routes the default demands over the intact
// and sampled damaged submarine and Intertubes networks and requires the
// reference's reports exactly.
func TestRouteMatchesReference(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	demands := DefaultDemands()
	models := []failure.Model{failure.S1(), failure.S2(), failure.Uniform{P: 0.05}}
	for _, net := range []*topology.Network{w.Submarine, w.Intertubes} {
		deads := []graph.Bitset{nil}
		for mi, m := range models {
			plan, err := failure.Compile(net, m, 150)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 5; seed++ {
				dead := plan.NewDead()
				plan.SampleDense(dead, xrand.New(seed+uint64(10*mi)))
				deads = append(deads, dead)
			}
		}
		for i, dead := range deads {
			got, err := Route(net, demands, dead)
			if err != nil {
				t.Fatal(err)
			}
			want, err := routeReference(net, demands, boolsOf(dead, len(net.Cables)))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameReport(got, want); err != nil {
				t.Fatalf("%s, dead vector %d: %v", net.Name, i, err)
			}
		}
	}
}

// TestRouteMatchesReferenceWithTies routes over random small networks
// whose segment lengths come from three values, so equal-distance paths
// are common and the heap's tie order decides which one carries the load.
func TestRouteMatchesReferenceWithTies(t *testing.T) {
	demands := DefaultDemands()
	for i := 0; i < 60; i++ {
		r := xrand.New(uint64(i))
		net := &topology.Network{Name: fmt.Sprintf("ties-%d", i)}
		n := 6 + r.Intn(40)
		for k := 0; k < n; k++ {
			net.Nodes = append(net.Nodes, topology.Node{
				Name: fmt.Sprintf("city%d-%d", k%7, k), HasCoord: r.Bool(0.95),
				Coord: geo.Coord{Lat: r.Range(-60, 75), Lon: r.Range(-180, 180)},
			})
		}
		for c := n + r.Intn(3*n); c > 0; c-- {
			cable := topology.Cable{Name: fmt.Sprintf("c%d", c)}
			for s := 1 + r.Intn(3); s > 0; s-- {
				km := float64(1000 * (1 + r.Intn(3)))
				cable.Segments = append(cable.Segments, topology.Segment{A: r.Intn(n), B: r.Intn(n), LengthKm: km})
			}
			net.Cables = append(net.Cables, cable)
		}
		dead := graph.NewBitset(len(net.Cables))
		for ci := range net.Cables {
			if r.Bool(0.2) {
				dead.Set(ci)
			}
		}
		for _, d := range []graph.Bitset{nil, dead} {
			got, err := Route(net, demands, d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := routeReference(net, demands, boolsOf(d, len(net.Cables)))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameReport(got, want); err != nil {
				t.Fatalf("%s (dead=%v): %v", net.Name, d != nil, err)
			}
		}
	}
}

// TestHeapSiftsLikeContainerHeap drives the typed heap and container/heap
// through the same pushes and pops, with many equal keys, and requires the
// same backing array after every step.
func TestHeapSiftsLikeContainerHeap(t *testing.T) {
	r := xrand.New(5)
	var typed pq
	ref := &refPQ{}
	for step := 0; step < 20000; step++ {
		if len(typed) == 0 || r.Bool(0.55) {
			it := pqItem{node: step, dist: float64(r.Intn(8))}
			typed.push(it)
			heap.Push(ref, it)
		} else {
			got, want := typed.pop(), heap.Pop(ref).(pqItem)
			if got != want {
				t.Fatalf("step %d: popped %v, want %v", step, got, want)
			}
		}
		if len(typed) != len(*ref) {
			t.Fatalf("step %d: %d items, want %d", step, len(typed), len(*ref))
		}
		for i := range typed {
			if typed[i] != (*ref)[i] {
				t.Fatalf("step %d: slot %d holds %v, want %v", step, i, typed[i], (*ref)[i])
			}
		}
	}
}

// TestRouteAllocationCeiling bounds Route's allocations on the intact
// submarine network. The count does not depend on the host's speed or
// core count, so the ceiling gives the same verdict anywhere.
func TestRouteAllocationCeiling(t *testing.T) {
	net := subNet(t)
	demands := DefaultDemands()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Route(net, demands, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12000 {
		t.Errorf("Route allocates %.0f times per call on the intact submarine network, ceiling 12000", allocs)
	}
}
