// Recovery timeline: after a severe storm, how long until the submarine
// network is stitched back together? The paper warns outages could last
// months (§3.2.2): the global cable-ship fleet was sized for localized
// faults, not hundreds of simultaneous failures.
package main

import (
	"fmt"
	"log"

	"gicnet"
)

func main() {
	log.SetFlags(0)

	world, err := gicnet.DefaultWorld()
	if err != nil {
		log.Fatal(err)
	}

	// One severe-storm realisation.
	dead, err := gicnet.SampleStorm(world.Submarine, gicnet.S1(), 150, gicnet.DefaultSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("storm outcome: %d of %d cables dead\n", dead.Count(), len(world.Submarine.Cables))

	faults, err := gicnet.SampleFaults(world.Submarine, dead, 150, 0.1, gicnet.DefaultSeed)
	if err != nil {
		log.Fatal(err)
	}
	repeaters := 0
	for _, f := range faults {
		repeaters += f.DamagedRepeaters
	}
	fmt.Printf("repair backlog: %d cable campaigns, %d damaged repeaters\n\n", len(faults), repeaters)

	sched, err := gicnet.PlanRecovery(world.Submarine, faults, gicnet.DefaultRepairFleet())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d ships\n", len(gicnet.DefaultRepairFleet()))
	for _, m := range []float64{0.5, 0.9, 0.95, 1.0} {
		days := sched.RestoredAt[m]
		fmt.Printf("  %3.0f%% connectivity restored after %6.1f days (%.1f months)\n",
			100*m, days, days/30)
	}
	fmt.Printf("\nfirst repairs completed:\n")
	for i, e := range sched.Events {
		if i >= 5 {
			break
		}
		fmt.Printf("  day %5.1f  %-14s repaired %-24s (+%d landing points)\n",
			e.Done, e.Ship, e.Cable, e.NodesRestored)
	}
	fmt.Println("\nthe paper's warning quantified: with today's fleet, a severe storm")
	fmt.Println("means months of degraded intercontinental connectivity.")
}
