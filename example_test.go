package gicnet_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"gicnet"
)

// ExampleSimulate runs the paper's severe-storm state (S1) over the
// submarine network and reports the mean failure rate.
func ExampleSimulate() {
	world, err := gicnet.DefaultWorld()
	if err != nil {
		log.Fatal(err)
	}
	res, err := gicnet.Simulate(context.Background(), world.Submarine, gicnet.SimConfig{
		Model:     gicnet.S1(),
		SpacingKm: 150,
		Trials:    10,
		Seed:      gicnet.DefaultSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Failure rates are world-dependent; print a stable classification.
	switch mean := res.CableFrac.Mean(); {
	case mean > 0.2:
		fmt.Println("severe: more than a fifth of submarine cables fail")
	case mean > 0.05:
		fmt.Println("moderate damage")
	default:
		fmt.Println("minor damage")
	}
	// Output: severe: more than a fifth of submarine cables fail
}

// ExampleStormModel derives failure probabilities from a physical storm
// scenario rather than the abstract S1/S2 states.
func ExampleStormModel() {
	model, err := gicnet.StormModel(gicnet.Carrington)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(model.Name())
	// Output: storm:carrington-1859
}

// ExampleNewAnalyzer answers a §4.3.4-style question: does Singapore stay
// connected to India under a severe storm?
func ExampleNewAnalyzer() {
	world, err := gicnet.DefaultWorld()
	if err != nil {
		log.Fatal(err)
	}
	an, err := gicnet.NewAnalyzer(world)
	if err != nil {
		log.Fatal(err)
	}
	conn, err := an.PairConnectivity(context.Background(), gicnet.S1(), 150, 100, 1, "sg", "in")
	if err != nil {
		log.Fatal(err)
	}
	if conn.SurvivalProb > 0.9 {
		fmt.Println("Singapore keeps India")
	} else {
		fmt.Println("Singapore loses India")
	}
	// Output: Singapore keeps India
}

// ExamplePlanShutdown schedules pre-impact power-downs for a moderate
// storm forecast.
func ExamplePlanShutdown() {
	world, err := gicnet.DefaultWorld()
	if err != nil {
		log.Fatal(err)
	}
	plan, err := gicnet.PlanShutdown(world.Submarine, gicnet.Quebec, gicnet.DefaultShutdownOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan saves cables: %v\n", plan.Improvement() > 0)
	// Output: plan saves cables: true
}

// ExampleBaselineSolarRisk prints the paper's cited risk bracket.
func ExampleBaselineSolarRisk() {
	r := gicnet.BaselineSolarRisk()
	fmt.Printf("%.1f%%-%.1f%% per decade\n", 100*r.PerDecadeLow, 100*r.PerDecadeHigh)
	// Output: 1.6%-12.0% per decade
}

// ExampleAssessConstellation checks Starlink-class exposure to the
// reference superstorm.
func ExampleAssessConstellation() {
	exp, err := gicnet.AssessConstellation(gicnet.Starlink(), gicnet.Carrington)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drag multiplier: %.0fx\n", exp.DragMultiplier)
	// Output: drag multiplier: 10x
}

// ExampleSampleStorm draws one severe-storm realisation and turns its dead
// cables into the repair backlog a cable-ship fleet faces (§3.2.2).
func ExampleSampleStorm() {
	world, err := gicnet.DefaultWorld()
	if err != nil {
		log.Fatal(err)
	}
	net := world.Submarine
	dead, err := gicnet.SampleStorm(net, gicnet.S1(), 150, gicnet.DefaultSeed)
	if err != nil {
		log.Fatal(err)
	}
	faults, err := gicnet.SampleFaults(net, dead, 150, 0.1, gicnet.DefaultSeed)
	if err != nil {
		log.Fatal(err)
	}
	repeaters := 0
	for _, f := range faults {
		repeaters += f.DamagedRepeaters
	}
	fmt.Printf("%d of %d cables dead\n", dead.Count(), len(net.Cables))
	fmt.Printf("%d repair campaigns, %d damaged repeaters\n", len(faults), repeaters)
	// Output:
	// 137 of 470 cables dead
	// 137 repair campaigns, 702 damaged repeaters
}

// ExampleRouteTraffic cuts every cable landing in the New York area and
// routes the inter-region demand over what survives (§5.5).
func ExampleRouteTraffic() {
	world, err := gicnet.DefaultWorld()
	if err != nil {
		log.Fatal(err)
	}
	net := world.Submarine
	var ny []int
	for i, nd := range net.Nodes {
		if strings.Contains(nd.Name, "new-york") || strings.Contains(nd.Name, "long-island") ||
			strings.Contains(nd.Name, "wall-nj") {
			ny = append(ny, i)
		}
	}
	dead := gicnet.NewCableSet(net)
	for _, ci := range net.CablesTouching(ny) {
		dead.Set(ci)
	}
	rep, err := gicnet.RouteTraffic(net, gicnet.DefaultTrafficDemands(), dead)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d cables killed\n", dead.Count())
	fmt.Printf("%.1f%% of demand stranded\n", 100*rep.StrandedFrac())
	// Output:
	// 29 cables killed
	// 0.0% of demand stranded
}
