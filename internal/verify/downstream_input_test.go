package verify

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/grid"
	"gicnet/internal/partition"
	"gicnet/internal/recovery"
	"gicnet/internal/routing"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// errPanic marks an entry point that panicked instead of returning.
var errPanic = errors.New("panicked")

// call runs f and turns a panic into an error wrapping errPanic.
func call(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	return f()
}

// entry is one downstream entry point's answer to a network and dead set.
type entry struct {
	name string
	err  error
}

// downstreamEntries calls every downstream entry point that takes a
// network and a dead-cable set, and returns FaultsFrom's faults too.
func downstreamEntries(net *topology.Network, dead graph.Bitset) ([]entry, []recovery.Fault) {
	gm := grid.DefaultModel(failure.S1().Probs)
	rng := xrand.New(1)
	var faults []recovery.Fault
	faultsErr := call(func() (err error) {
		faults, err = recovery.FaultsFrom(net, dead, 150, 0.1, rng)
		return err
	})
	return []entry{
		{"Route", call(func() error {
			_, err := routing.Route(net, routing.DefaultDemands(), dead)
			return err
		})},
		{"FaultsFrom", faultsErr},
		{"Cascade", call(func() error {
			_, _, err := gm.Cascade(net, dead, rng)
			return err
		})},
		{"Analyze", call(func() error {
			_, err := partition.Analyze(net, dead)
			return err
		})},
	}, faults
}

// inputNetwork is a small valid network: three located nodes, cable 0
// between the first two and cable 1 from the second to the third.
func inputNetwork() *topology.Network {
	return &topology.Network{
		Name: "input",
		Nodes: []topology.Node{
			{Name: "a", Coord: geo.Coord{Lat: 40, Lon: -70}, HasCoord: true, Country: "us"},
			{Name: "b", Coord: geo.Coord{Lat: 50, Lon: -5}, HasCoord: true, Country: "gb"},
			{Name: "c", Coord: geo.Coord{Lat: 1, Lon: 104}, HasCoord: true, Country: "sg"},
		},
		Cables: []topology.Cable{
			{Name: "ab", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 5500}}},
			{Name: "bc", Segments: []topology.Segment{{A: 1, B: 2, LengthKm: 11000}}},
		},
	}
}

// TestDownstreamRefusesMalformedInput: each downstream entry point checks
// the network and the dead set with topology.ValidateDead before it
// indexes cables, segments or edges by them, so a malformed network or a
// set that does not fit returns an error instead of panicking.
func TestDownstreamRefusesMalformedInput(t *testing.T) {
	bits := func(ws ...uint64) graph.Bitset { return graph.Bitset(ws) }
	cases := []struct {
		name string
		net  func(*topology.Network)
		sets []graph.Bitset
	}{
		{"empty cable", func(n *topology.Network) { n.Cables[1].Segments = nil }, []graph.Bitset{bits(0), bits(2)}},
		{"dangling segment", func(n *topology.Network) { n.Cables[1].Segments[0].B = 7 }, []graph.Bitset{bits(0), bits(2)}},
		{"short set", nil, []graph.Bitset{{}}},
		{"long set", nil, []graph.Bitset{bits(1, 0)}},
		{"stray bit", nil, []graph.Bitset{bits(1 << 5)}},
	}
	for _, c := range cases {
		for _, dead := range c.sets {
			net := inputNetwork()
			if c.net != nil {
				c.net(net)
			}
			entries, _ := downstreamEntries(net, dead)
			for _, e := range entries {
				if e.err == nil || errors.Is(e.err, errPanic) {
					t.Errorf("%s, dead %v: %s returned %v, want an error", c.name, dead, e.name, e.err)
				}
			}
		}
	}
	entries, faults := downstreamEntries(inputNetwork(), bits(3))
	for _, e := range entries {
		if e.err != nil {
			t.Errorf("well-formed input: %s: %v", e.name, e.err)
		}
	}
	if len(faults) != 2 || faults[0].Cable != 0 || faults[1].Cable != 1 {
		t.Errorf("well-formed input: faults %+v, want cables 0 and 1", faults)
	}
}

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// downstreamInput decodes a small unvalidated network and a dead set from
// fuzz bytes. The network may hold out-of-range segment endpoints, empty
// cables, NaN or negative lengths, NaN coordinates and duplicate node
// names; the set may be nil, one word short or long, or carry bits past
// the last cable. Lengths stay below 13,000 km, as real cables do.
func downstreamInput(data []byte) (*topology.Network, graph.Bitset) {
	r := byteReader(data)
	net := &topology.Network{Name: "fuzz"}
	for i, n := 0, 1+int(r.next()%6); i < n; i++ {
		b := r.next()
		nd := topology.Node{Name: fmt.Sprintf("n%d", i), HasCoord: b&1 == 1,
			Coord: geo.Coord{Lat: float64(r.next()%180) - 89.5, Lon: float64(r.next()) - 128}}
		if b&6 == 6 {
			nd.Coord.Lat = math.NaN()
		}
		if b&24 == 24 {
			nd.Name = "dup"
		}
		net.Nodes = append(net.Nodes, nd)
	}
	for c, n := 0, int(r.next()%5); c < n; c++ {
		cable := topology.Cable{Name: fmt.Sprintf("c%d", c)}
		for s, segs := 0, int(r.next()%3); s < segs; s++ {
			seg := topology.Segment{A: int(r.next()%8) - 1, B: int(r.next()%8) - 1}
			switch l := r.next(); l % 16 {
			case 0:
				seg.LengthKm = math.NaN()
			case 1:
				seg.LengthKm = -1
			default:
				seg.LengthKm = 50 * float64(l)
			}
			cable.Segments = append(cable.Segments, seg)
		}
		net.Cables = append(net.Cables, cable)
	}
	shape := r.next()
	if shape%4 == 0 {
		return net, nil
	}
	words := graph.BitsetWords(len(net.Cables)) + int(shape%4) - 2
	dead := make(graph.Bitset, max(words, 0))
	for i := range dead {
		dead[i] = uint64(r.next())
	}
	return net, dead
}

// FuzzDownstreamInput drives Route, FaultsFrom, Cascade, Analyze and
// PlanRecovery with small unvalidated networks and dead sets. Each call
// returns an error or a result and never panics; on a valid network with
// a well-formed set every call succeeds, and FaultsFrom returns one fault
// per set bit in ascending cable order.
func FuzzDownstreamInput(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 130, 20, 1, 150, 30, 1, 1, 1, 2, 90, 2, 1})            // valid, cable 0 dead
	f.Add([]byte{1, 1, 130, 20, 1, 150, 30, 2, 1, 1, 2, 90, 1, 2, 1, 200, 0}) // valid, nil set
	f.Add([]byte{1, 1, 130, 20, 1, 150, 30, 1, 1, 1, 8, 90, 2, 1})            // dangling segment
	f.Add([]byte{1, 1, 130, 20, 1, 150, 30, 2, 0, 1, 1, 2, 90, 2, 255})       // empty cable, stray bits
	f.Add([]byte{1, 7, 130, 20, 1, 150, 30, 1, 1, 1, 2, 16, 3, 1, 0})         // NaN latitude and length, long set
	f.Add([]byte{1, 1, 130, 20, 1, 150, 30, 1, 1, 1, 2, 90, 1})               // short set
	f.Add([]byte{1, 25, 130, 20, 25, 150, 30, 1, 1, 1, 2, 17, 2, 1})          // negative length, duplicate names
	f.Fuzz(func(t *testing.T, data []byte) {
		net, dead := downstreamInput(data)
		valid := net.ValidateDead(dead) == nil
		entries, faults := downstreamEntries(net, dead)
		for _, e := range entries {
			if errors.Is(e.err, errPanic) || valid && e.err != nil {
				t.Fatalf("%s (valid input %v): %v", e.name, valid, e.err)
			}
		}
		if !valid {
			// Fault every set bit, in range or not: PlanRecovery must refuse
			// what it cannot schedule without panicking.
			faults = faults[:0]
			for wi, w := range dead {
				for b := 0; b < 64; b++ {
					if w>>b&1 == 1 {
						faults = append(faults, recovery.Fault{Cable: wi<<6 + b, DamagedRepeaters: 1})
					}
				}
			}
		}
		err := call(func() error {
			_, err := recovery.PlanRecovery(net, faults, recovery.DefaultFleet(), recovery.DefaultOptions())
			return err
		})
		if errors.Is(err, errPanic) || valid && err != nil {
			t.Fatalf("PlanRecovery (valid input %v): %v", valid, err)
		}
		if !valid {
			return
		}
		k := 0
		for ci := range net.Cables {
			if dead == nil || !dead.Get(ci) {
				continue
			}
			if k >= len(faults) || faults[k].Cable != ci {
				t.Fatalf("faults %+v, want one per dead cable in ascending order; dead %v", faults, dead)
			}
			k++
		}
		if k != len(faults) {
			t.Fatalf("%d faults for %d dead cables", len(faults), k)
		}
	})
}
