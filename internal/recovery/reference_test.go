package recovery

import (
	"errors"
	"fmt"
	"sort"

	"gicnet/internal/geo"
	"gicnet/internal/graph"
	"gicnet/internal/topology"
)

// PlanRecoveryRescan is PlanRecovery as it was before the live-cable
// counters: it prices every pending fault by rescanning all nodes with
// UnreachableNodes at every ship assignment. It checks only what that
// version checked, so it is a reference for accepted input alone. The
// differential tests and FuzzPlanRecovery hold PlanRecovery to it.
func PlanRecoveryRescan(net *topology.Network, faults []Fault, fleet []Ship, opts Options) (*Schedule, error) {
	if len(fleet) == 0 {
		return nil, errors.New("recovery: empty fleet")
	}
	if opts.BaseDays <= 0 {
		return nil, errors.New("recovery: base days must be positive")
	}
	for _, f := range faults {
		if f.Cable < 0 || f.Cable >= len(net.Cables) {
			return nil, fmt.Errorf("recovery: fault references cable %d", f.Cable)
		}
	}
	dead := graph.NewBitset(len(net.Cables))
	for _, f := range faults {
		dead.Set(f.Cable)
	}
	baselineUnreachable := len(net.UnreachableNodes(dead))
	preStormReachable := net.ConnectedNodeCount()

	type shipState struct {
		ship Ship
		free float64
		pos  geo.Coord
	}
	ships := make([]shipState, len(fleet))
	for i, s := range fleet {
		if s.SpeedKmPerDay <= 0 {
			return nil, fmt.Errorf("recovery: ship %q has no speed", s.Name)
		}
		ships[i] = shipState{ship: s, pos: s.Pos}
	}

	pending := append([]Fault(nil), faults...)
	sched := &Schedule{RestoredAt: map[float64]float64{}}
	for len(pending) > 0 {
		si := 0
		for i := range ships {
			if ships[i].free < ships[si].free {
				si = i
			}
		}
		ship := &ships[si]
		bestIdx, bestRate, bestDone := -1, -1.0, 0.0
		for fi, f := range pending {
			transit := geo.Haversine(ship.pos, f.Location) / ship.ship.SpeedKmPerDay
			repair := opts.BaseDays + opts.DaysPerRepeater*float64(f.DamagedRepeaters)
			done := ship.free + transit + repair
			dead.Unset(f.Cable)
			restored := 0
			if baselineUnreachable > 0 {
				restored = baselineUnreachable - len(net.UnreachableNodes(dead))
			}
			dead.Set(f.Cable)
			rate := (float64(restored) + 0.1) / (transit + repair)
			if rate > bestRate {
				bestRate, bestIdx, bestDone = rate, fi, done
			}
		}
		f := pending[bestIdx]
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		dead.Unset(f.Cable)
		baselineUnreachable = len(net.UnreachableNodes(dead))
		sched.Events = append(sched.Events, Event{
			Ship:  ship.ship.Name,
			Cable: net.Cables[f.Cable].Name,
			Start: ship.free,
			Done:  bestDone,
		})
		ship.free = bestDone
		ship.pos = f.Location
		if bestDone > sched.MakespanDays {
			sched.MakespanDays = bestDone
		}
	}

	sort.Slice(sched.Events, func(i, j int) bool { return sched.Events[i].Done < sched.Events[j].Done })
	dead.Clear()
	cableIdx := make(map[string]int, len(net.Cables))
	for ci := range net.Cables {
		cableIdx[net.Cables[ci].Name] = ci
	}
	for _, f := range faults {
		dead.Set(f.Cable)
	}
	milestones := []float64{0.5, 0.9, 0.95, 1.0}
	unreachable := len(net.UnreachableNodes(dead))
	record := func(day float64) {
		restoredFrac := float64(preStormReachable-unreachable) / float64(preStormReachable)
		for _, m := range milestones {
			if _, done := sched.RestoredAt[m]; !done && restoredFrac >= m {
				sched.RestoredAt[m] = day
			}
		}
	}
	record(0)
	for ei := range sched.Events {
		e := &sched.Events[ei]
		dead.Unset(cableIdx[e.Cable])
		now := len(net.UnreachableNodes(dead))
		e.NodesRestored = unreachable - now
		unreachable = now
		record(e.Done)
	}
	for _, m := range milestones {
		if _, ok := sched.RestoredAt[m]; !ok {
			sched.RestoredAt[m] = sched.MakespanDays
		}
	}
	return sched, nil
}
