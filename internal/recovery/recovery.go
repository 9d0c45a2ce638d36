// Package recovery implements the post-storm repair problem of §3.2.2: a
// small global fleet of cable ships must visit every damaged cable, each
// repair takes days to weeks, and — unlike the localized faults the fleet
// was sized for — a superstorm damages hundreds of cables at once. The
// scheduler decides repair order to restore connectivity fastest.
package recovery

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Fault is one damaged cable awaiting repair.
type Fault struct {
	// Cable indexes the network's cable list.
	Cable int
	// DamagedRepeaters drives repair duration.
	DamagedRepeaters int
	// Location approximates where the ship must sail (midpoint of the
	// cable's first segment).
	Location geo.Coord
}

// FaultsFrom samples faults for every dead cable, in ascending cable
// order: the number of damaged repeaters is Binomial(repeaters, severity),
// at least 1. Networks without coordinates get faults at an unknown
// location (zero coordinate) — transit time still accrues from the ship's
// position. A network or set that topology.ValidateDead refuses is an
// error wrapping ErrBadInput.
func FaultsFrom(net *topology.Network, cableDead graph.Bitset, spacingKm, severity float64, rng *xrand.Source) ([]Fault, error) {
	if err := net.ValidateDead(cableDead); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	if severity <= 0 || severity > 1 {
		return nil, errors.New("recovery: severity must be in (0,1]")
	}
	if err := failure.CheckSpacing(spacingKm); err != nil {
		return nil, err
	}
	var out []Fault
	for wi, w := range cableDead {
		for ; w != 0; w &= w - 1 {
			ci := wi<<6 + bits.TrailingZeros64(w)
			reps := net.Cables[ci].RepeaterCount(spacingKm)
			damaged := 0
			for r := 0; r < reps; r++ {
				if rng.Bool(severity) {
					damaged++
				}
			}
			if damaged == 0 {
				damaged = 1 // the cable died; something broke
			}
			f := Fault{Cable: ci, DamagedRepeaters: damaged}
			seg := net.Cables[ci].Segments[0]
			a, b := net.Nodes[seg.A], net.Nodes[seg.B]
			if a.HasCoord && b.HasCoord {
				f.Location = geo.Midpoint(a.Coord, b.Coord)
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// Ship is one repair vessel.
type Ship struct {
	Name string
	// Pos is the ship's home port / current position.
	Pos geo.Coord
	// SpeedKmPerDay is cruise speed (cable ships do ~300-500 km/day).
	SpeedKmPerDay float64
}

// DefaultFleet returns a representative global fleet stationed at major
// cable depots. The real fleet numbers only a few tens of vessels — the
// paper's point is that it was sized for localized damage.
func DefaultFleet() []Ship {
	mk := func(name string, lat, lon float64) Ship {
		return Ship{Name: name, Pos: geo.Coord{Lat: lat, Lon: lon}, SpeedKmPerDay: 400}
	}
	return []Ship{
		mk("cs-atlantic-1", 50.9, -1.4),  // Southampton
		mk("cs-atlantic-2", 40.7, -74.0), // New York
		mk("cs-caribbean", 18.5, -66.1),  // San Juan
		mk("cs-pacific-1", 37.8, -122.4), // San Francisco
		mk("cs-pacific-2", 35.0, 139.8),  // Yokohama
		mk("cs-asia-1", 1.3, 103.8),      // Singapore
		mk("cs-asia-2", 22.3, 114.2),     // Hong Kong
		mk("cs-indian", 19.1, 72.9),      // Mumbai
		mk("cs-med", 43.3, 5.4),          // Marseille
		mk("cs-southern", -33.9, 18.4),   // Cape Town
	}
}

// Options tunes repair timing.
type Options struct {
	// BaseDays is the fixed cost of one cable repair campaign.
	BaseDays float64
	// DaysPerRepeater adds time for each damaged repeater.
	DaysPerRepeater float64
}

// DefaultOptions matches the paper's "days to weeks" per damage point.
func DefaultOptions() Options { return Options{BaseDays: 7, DaysPerRepeater: 3} }

// Event is one completed repair.
type Event struct {
	Ship  string
	Cable string
	// Start and Done are days since the storm.
	Start, Done float64
	// NodesRestored is how many previously-unreachable nodes regained a
	// live cable when this repair completed.
	NodesRestored int
}

// Schedule is a full recovery plan.
type Schedule struct {
	Events []Event
	// MakespanDays is when the last repair completes.
	MakespanDays float64
	// RestoredAt maps fractional connectivity milestones (0.5, 0.9,
	// 0.95, 1.0 of the pre-storm connected node count) to days.
	RestoredAt map[float64]float64
}

// ErrBadInput reports a network or dead-cable set FaultsFrom cannot index,
// or a fleet, fault list or repair option that PlanRecovery cannot
// schedule.
var ErrBadInput = errors.New("recovery: invalid input")

// PlanRecovery greedily schedules the fleet: whenever a ship frees up, it
// takes the pending fault with the best marginal value rate — nodes that
// would regain connectivity divided by (transit + repair) time.
//
// The scheduler keeps a live-cable count per node, so the nodes that
// repairing cable c would reconnect are exactly c's own nodes whose count
// is zero: pricing a fault walks that cable's nodes, never the network.
// Each fault must name its own cable; input the rates cannot be priced
// from returns an error wrapping ErrBadInput (see checkInput).
func PlanRecovery(net *topology.Network, faults []Fault, fleet []Ship, opts Options) (*Schedule, error) {
	dead, err := checkInput(net, faults, fleet, opts)
	if err != nil {
		return nil, err
	}

	// live[i] counts node i's intact cables; a node with cables and a zero
	// count is unreachable. initial is the post-storm state, replayed by
	// the completion-order pass below.
	ib := net.IncidenceBits()
	initial := make([]int32, len(net.Nodes))
	for i := range initial {
		for _, ci := range ib.NodeCables[ib.NodeCableStart[i]:ib.NodeCableStart[i+1]] {
			if !dead[ci] {
				initial[i]++
			}
		}
	}
	live := append([]int32(nil), initial...)
	// reconnects counts the nodes repairing cable ci reconnects: its own
	// nodes with no other live cable.
	reconnects := func(ci int) int {
		n := 0
		for _, ni := range ib.CableNodes[ib.CableStart[ci]:ib.CableStart[ci+1]] {
			if live[ni] == 0 {
				n++
			}
		}
		return n
	}
	restore := func(ci int) {
		for _, ni := range ib.CableNodes[ib.CableStart[ci]:ib.CableStart[ci+1]] {
			live[ni]++
		}
	}

	type shipState struct {
		ship Ship
		free float64
		pos  geo.Coord
	}
	ships := make([]shipState, len(fleet))
	for i, s := range fleet {
		ships[i] = shipState{ship: s, pos: s.Pos}
	}

	pending := append([]Fault(nil), faults...)
	sched := &Schedule{RestoredAt: map[float64]float64{}}
	// cables[k] is the cable of sched.Events[k].
	cables := make([]int, 0, len(faults))

	for len(pending) > 0 {
		// Pick the ship that frees first.
		si := 0
		for i := range ships {
			if ships[i].free < ships[si].free {
				si = i
			}
		}
		ship := &ships[si]

		// Choose the fault with the best value rate for this ship.
		bestIdx, bestRate, bestDone := -1, -1.0, 0.0
		for fi, f := range pending {
			transit := geo.Haversine(ship.pos, f.Location) / ship.ship.SpeedKmPerDay
			repair := opts.BaseDays + opts.DaysPerRepeater*float64(f.DamagedRepeaters)
			done := ship.free + transit + repair
			// Marginal reconnection value of restoring this cable now.
			rate := (float64(reconnects(f.Cable)) + 0.1) / (transit + repair)
			if rate > bestRate {
				bestRate, bestIdx, bestDone = rate, fi, done
			}
		}
		f := pending[bestIdx]
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)

		// Mark repaired for subsequent marginal-value estimates (they
		// assume earlier-scheduled work completes).
		restore(f.Cable)
		sched.Events = append(sched.Events, Event{
			Ship:  ship.ship.Name,
			Cable: net.Cables[f.Cable].Name,
			Start: ship.free,
			Done:  bestDone,
		})
		cables = append(cables, f.Cable)
		ship.free = bestDone
		ship.pos = f.Location
		if bestDone > sched.MakespanDays {
			sched.MakespanDays = bestDone
		}
	}

	// Post-pass in completion order: per-event restoration counts and
	// milestone crossing times. (Assignment order differs from completion
	// order once several ships work in parallel.) Each event's cable
	// moves with it.
	sort.Sort(byDone{sched.Events, cables})
	copy(live, initial)
	unreachable := 0
	for i, n := range live {
		if n == 0 && ib.NodeCableStart[i+1] > ib.NodeCableStart[i] {
			unreachable++
		}
	}
	preStormReachable := net.ConnectedNodeCount() // all nodes had live cables pre-storm
	milestones := []float64{0.5, 0.9, 0.95, 1.0}
	record := func(day float64) {
		restoredFrac := float64(preStormReachable-unreachable) / float64(preStormReachable)
		for _, m := range milestones {
			if _, done := sched.RestoredAt[m]; !done && restoredFrac >= m {
				sched.RestoredAt[m] = day
			}
		}
	}
	record(0)
	for k := range sched.Events {
		e := &sched.Events[k]
		e.NodesRestored = reconnects(cables[k])
		restore(cables[k])
		unreachable -= e.NodesRestored
		record(e.Done)
	}
	for _, m := range milestones {
		if _, ok := sched.RestoredAt[m]; !ok {
			sched.RestoredAt[m] = sched.MakespanDays
		}
	}
	return sched, nil
}

// byDone orders events by completion day, swapping each event's cable
// along with it.
type byDone struct {
	events []Event
	cables []int
}

func (b byDone) Len() int           { return len(b.events) }
func (b byDone) Less(i, j int) bool { return b.events[i].Done < b.events[j].Done }
func (b byDone) Swap(i, j int) {
	b.events[i], b.events[j] = b.events[j], b.events[i]
	b.cables[i], b.cables[j] = b.cables[j], b.cables[i]
}

// checkInput refuses what the scheduler cannot price: a network that
// fails Validate, an empty fleet, options, speeds and coordinates that
// would make a value rate NaN or infinite, negative damage, and a second
// fault on one cable. It returns the faulted cables.
func checkInput(net *topology.Network, faults []Fault, fleet []Ship, opts Options) ([]bool, error) {
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if len(fleet) == 0 {
		return nil, fmt.Errorf("%w: empty fleet", ErrBadInput)
	}
	if !(opts.BaseDays > 0) || math.IsInf(opts.BaseDays, 1) {
		return nil, fmt.Errorf("%w: base days %v, want positive and finite", ErrBadInput, opts.BaseDays)
	}
	if !(opts.DaysPerRepeater >= 0) || math.IsInf(opts.DaysPerRepeater, 1) {
		return nil, fmt.Errorf("%w: days per repeater %v, want non-negative and finite", ErrBadInput, opts.DaysPerRepeater)
	}
	for _, s := range fleet {
		if !(s.SpeedKmPerDay > 0) || math.IsInf(s.SpeedKmPerDay, 1) {
			return nil, fmt.Errorf("%w: ship %q speed %v km/day, want positive and finite", ErrBadInput, s.Name, s.SpeedKmPerDay)
		}
		if err := s.Pos.Validate(); err != nil {
			return nil, fmt.Errorf("%w: ship %q: %v", ErrBadInput, s.Name, err)
		}
	}
	dead := make([]bool, len(net.Cables))
	for _, f := range faults {
		switch {
		case f.Cable < 0 || f.Cable >= len(net.Cables):
			return nil, fmt.Errorf("%w: fault references cable %d", ErrBadInput, f.Cable)
		case dead[f.Cable]:
			return nil, fmt.Errorf("%w: two faults on cable %d", ErrBadInput, f.Cable)
		case f.DamagedRepeaters < 0:
			return nil, fmt.Errorf("%w: fault on cable %d damages %d repeaters", ErrBadInput, f.Cable, f.DamagedRepeaters)
		}
		if err := f.Location.Validate(); err != nil {
			return nil, fmt.Errorf("%w: fault on cable %d: %v", ErrBadInput, f.Cable, err)
		}
		dead[f.Cable] = true
	}
	return dead, nil
}

// MonthsToRestore converts a day count to months (30-day months), the
// paper's unit for "outages lasting several months".
func MonthsToRestore(days float64) float64 { return days / 30 }

// FleetSizeSweep returns the 95%-restoration time for fleets of various
// sizes built by truncating/extending the default fleet — the capacity
// ablation behind the paper's warning that repair capacity, not repair
// speed, dominates recovery from a global event.
func FleetSizeSweep(net *topology.Network, faults []Fault, sizes []int, opts Options) (map[int]float64, error) {
	base := DefaultFleet()
	out := make(map[int]float64, len(sizes))
	for _, n := range sizes {
		if n <= 0 {
			return nil, errors.New("recovery: fleet size must be positive")
		}
		fleet := make([]Ship, n)
		for i := 0; i < n; i++ {
			s := base[i%len(base)]
			s.Name = fmt.Sprintf("%s-%d", s.Name, i/len(base))
			fleet[i] = s
		}
		sched, err := PlanRecovery(net, faults, fleet, opts)
		if err != nil {
			return nil, err
		}
		t := sched.RestoredAt[0.95]
		if math.IsNaN(t) {
			t = sched.MakespanDays
		}
		out[n] = t
	}
	return out, nil
}
