package recovery_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/recovery"
	"gicnet/internal/topology"
	"gicnet/internal/verify"
	"gicnet/internal/xrand"
)

// sameSchedule runs PlanRecovery and the rescan reference on one input
// and requires equal schedules field for field: every event (ship, cable,
// start, done, nodes restored) in order, the makespan and each milestone.
func sameSchedule(net *topology.Network, faults []recovery.Fault, fleet []recovery.Ship) error {
	opts := recovery.DefaultOptions()
	got, err := recovery.PlanRecovery(net, faults, fleet, opts)
	if err != nil {
		return err
	}
	want, err := recovery.PlanRecoveryRescan(net, faults, fleet, opts)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want.Events {
			if i >= len(got.Events) || got.Events[i] != want.Events[i] {
				return fmt.Errorf("event %d differs (of %d)", i, len(want.Events))
			}
		}
		return fmt.Errorf("schedules differ: makespan %v vs %v, milestones %v vs %v",
			got.MakespanDays, want.MakespanDays, got.RestoredAt, want.RestoredAt)
	}
	return nil
}

// TestPlanRecoveryMatchesRescan schedules sampled storm damage on the
// default world (S1 and S2, five seeds each) and on the random small
// networks of the downstream relations, with the default fleet and with
// two ships, and requires the rescan reference's schedule exactly.
func TestPlanRecoveryMatchesRescan(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	fleets := [][]recovery.Ship{recovery.DefaultFleet(), recovery.DefaultFleet()[3:5]}
	check := func(net *topology.Network, m failure.Model, seed uint64) {
		t.Helper()
		plan, err := failure.Compile(net, m, 150)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed)
		dead := plan.NewDead()
		plan.SampleDense(dead, rng)
		faults, err := recovery.FaultsFrom(net, dead, 150, 0.1, rng)
		if err != nil {
			t.Fatal(err)
		}
		for fi, fleet := range fleets {
			if err := sameSchedule(net, faults, fleet); err != nil {
				t.Errorf("%s, %s, seed %d, fleet %d (%d faults): %v", net.Name, m.Name(), seed, fi, len(faults), err)
			}
		}
	}
	for _, m := range []failure.Model{failure.S1(), failure.S2()} {
		for seed := uint64(1); seed <= 5; seed++ {
			check(w.Submarine, m, seed)
		}
	}
	for _, net := range verify.RandomNetworks(dataset.DefaultSeed) {
		for seed := uint64(1); seed <= 5; seed++ {
			check(net, failure.S1(), seed)
		}
	}
}

// fuzzNetwork grows a tiny network: some nodes without coordinates, some
// without cables, cables of one to three segments, self-loops allowed.
// Cable names are distinct, as the rescan reference maps names back to
// cables.
func fuzzNetwork(r *xrand.Source) *topology.Network {
	net := &topology.Network{Name: "fuzz"}
	n := 1 + r.Intn(12)
	for i := 0; i < n; i++ {
		net.Nodes = append(net.Nodes, topology.Node{Name: fmt.Sprintf("n%d", i), HasCoord: r.Bool(0.8),
			Coord: geo.Coord{Lat: r.Range(-80, 80), Lon: r.Range(-180, 180)}})
	}
	for c := r.Intn(16); c > 0; c-- {
		cable := topology.Cable{Name: fmt.Sprintf("c%d", c), KnownLength: true}
		for s := 1 + r.Intn(3); s > 0; s-- {
			cable.Segments = append(cable.Segments, topology.Segment{A: r.Intn(n), B: r.Intn(n), LengthKm: r.Range(50, 9000)})
		}
		net.Cables = append(net.Cables, cable)
	}
	return net
}

// FuzzPlanRecovery feeds random tiny networks, faults and fleets, with one
// fuzzed ship speed, one fuzzed coordinate (used as a fault location and
// as a ship position), one fuzzed repeater count, an optional extra fault
// on any cable index and an optional repeated fault. PlanRecovery must not
// panic, must refuse exactly the input checkInput's rules refuse, and
// every schedule it returns must equal the rescan reference's.
func FuzzPlanRecovery(f *testing.F) {
	f.Add(uint64(1), 400.0, 10.0, 20.0, 3, 0, false)
	f.Add(uint64(2), math.NaN(), 0.0, 0.0, 1, 0, false)
	f.Add(uint64(3), math.Inf(1), 45.0, 90.0, 2, 0, false)
	f.Add(uint64(4), 350.0, math.NaN(), 5.0, 1, 0, false)
	f.Add(uint64(5), 350.0, 95.0, 5.0, 1, 0, false)
	f.Add(uint64(6), 350.0, -30.0, 200.0, 1, 0, false)
	f.Add(uint64(7), 350.0, 12.0, 34.0, -1000, 0, false)
	f.Add(uint64(8), 350.0, 12.0, 34.0, 4, 0, true)
	f.Add(uint64(9), 350.0, 12.0, 34.0, 4, 2, false)
	f.Add(uint64(10), 350.0, 12.0, 34.0, 4, -5, false)
	f.Add(uint64(11), 1e-300, -90.0, -180.0, math.MaxInt, 99, false)
	f.Fuzz(func(t *testing.T, seed uint64, speed, lat, lon float64, damaged, extra int, repeat bool) {
		r := xrand.New(seed)
		net := fuzzNetwork(r)
		fuzzed := geo.Coord{Lat: lat, Lon: lon}

		var faults []recovery.Fault
		for ci := range net.Cables {
			if r.Bool(0.6) {
				faults = append(faults, recovery.Fault{Cable: ci, DamagedRepeaters: r.Intn(6),
					Location: geo.Coord{Lat: r.Range(-90, 90), Lon: r.Range(-180, 180)}})
			}
		}
		if len(faults) > 0 {
			faults[0].DamagedRepeaters = damaged
			faults[len(faults)-1].Location = fuzzed
			if repeat {
				faults = append(faults, faults[r.Intn(len(faults))])
			}
		}
		if extra != 0 {
			faults = append(faults, recovery.Fault{Cable: extra - 1, DamagedRepeaters: 1})
		}
		fleet := make([]recovery.Ship, 1+r.Intn(4))
		for i := range fleet {
			fleet[i] = recovery.Ship{Name: fmt.Sprintf("s%d", i), SpeedKmPerDay: r.Range(100, 600),
				Pos: geo.Coord{Lat: r.Range(-90, 90), Lon: r.Range(-180, 180)}}
		}
		fleet[0].SpeedKmPerDay = speed
		if r.Bool(0.5) {
			fleet[len(fleet)-1].Pos = fuzzed
		}

		valid := speed > 0 && !math.IsInf(speed, 1) && fleet[len(fleet)-1].Pos.Validate() == nil
		seen := make([]bool, len(net.Cables))
		for _, fl := range faults {
			if fl.Cable < 0 || fl.Cable >= len(net.Cables) || seen[fl.Cable] ||
				fl.DamagedRepeaters < 0 || fl.Location.Validate() != nil {
				valid = false
				break
			}
			seen[fl.Cable] = true
		}

		sched, err := recovery.PlanRecovery(net, faults, fleet, recovery.DefaultOptions())
		if !valid {
			if !errors.Is(err, recovery.ErrBadInput) {
				t.Fatalf("invalid input accepted or refused for another reason: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid input refused: %v", err)
		}
		want, err := recovery.PlanRecoveryRescan(net, faults, fleet, recovery.DefaultOptions())
		if err != nil {
			t.Fatalf("reference refused valid input: %v", err)
		}
		if !reflect.DeepEqual(sched, want) {
			t.Fatalf("schedule differs from the rescan reference:\n got %+v\nwant %+v", sched, want)
		}
	})
}
