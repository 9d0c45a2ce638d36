// Traffic shift: the paper's §5.5 contrast between power grids and the
// Internet — grids fail regionally, but Internet load redistributes
// globally. Kill every cable landing in New York and watch transatlantic
// demand pile onto surviving systems.
package main

import (
	"fmt"
	"log"
	"strings"

	"gicnet"
)

func main() {
	log.SetFlags(0)

	world, err := gicnet.DefaultWorld()
	if err != nil {
		log.Fatal(err)
	}
	net := world.Submarine
	demands := gicnet.DefaultTrafficDemands()

	before, err := gicnet.RouteTraffic(net, demands, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("intact network: %.1f%% of demand routed\n", 100*(1-before.StrandedFrac()))

	// Kill every cable touching the New York area landing stations.
	var nyNodes []int
	for i, nd := range net.Nodes {
		if strings.Contains(nd.Name, "new-york") || strings.Contains(nd.Name, "long-island") ||
			strings.Contains(nd.Name, "wall-nj") {
			nyNodes = append(nyNodes, i)
		}
	}
	dead := gicnet.NewCableSet(net)
	for _, ci := range net.CablesTouching(nyNodes) {
		dead.Set(ci)
	}
	fmt.Printf("failure scenario: %d cables landing in the New York area die\n\n", dead.Count())

	after, err := gicnet.RouteTraffic(net, demands, dead)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after failure: %.1f%% of demand still routed (%.1f%% stranded)\n",
		100*(1-after.StrandedFrac()), 100*after.StrandedFrac())

	shifts, err := gicnet.CompareTrafficLoads(net, before, after)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncables that absorbed the diverted load:")
	for i, s := range shifts {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-28s load %.4f -> %.4f (%.1fx)\n", s.Cable, s.Before, s.After, s.Ratio())
	}
	fmt.Println("\nunlike a regional grid failure, the outage is felt on cables an")
	fmt.Println("ocean away — the Internet reroutes globally, and so does the strain.")
}
