package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/xrand"
)

// TestPairSurvivalSameAtEveryBudget asks about several country pairs of the
// S1 submarine plan in one call (one pair listed twice, one whose sets are
// the same) at every worker budget and at trial counts on either side of
// the block edges, and requires the answers of a reference that shares no
// slot state with the labels scorer: one trial at a time, drawn by
// SampleInto and answered by AnyConnectedSupers. Under -race (the Makefile
// race target covers this package) it also proves the slots share nothing
// they write.
func TestPairSurvivalSameAtEveryBudget(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	net := w.Submarine
	plan, err := failure.Compile(net, failure.S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	country := func(cc string) []graph.NodeID {
		var out []graph.NodeID
		for _, n := range net.NodesOfCountry(cc) {
			out = append(out, graph.NodeID(n))
		}
		return out
	}
	pairs := []Pair{
		{From: country("us"), To: country("gb")},
		{From: country("nz"), To: country("us")},
		{From: country("sg"), To: country("in")},
		{From: country("za"), To: country("ke")},
		{From: country("nz"), To: country("us")},
		{From: country("au"), To: country("au")},
	}
	cc := plan.Contraction()
	scratch := net.Graph().NewScratch()
	dead := plan.NewDead()
	const seed = 3
	for _, trials := range []int{1, 63, 64, 65, 200} {
		want := make([]float64, len(pairs))
		for i, p := range pairs {
			from, to := cc.SupersOf(nil, p.From), cc.SupersOf(nil, p.To)
			survived := 0
			for ti := 0; ti < trials; ti++ {
				rng := xrand.New(seed).SplitAt(uint64(ti))
				plan.SampleInto(dead, &rng)
				if scratch.AnyConnectedSupers(cc, dead, from, to) {
					survived++
				}
			}
			want[i] = float64(survived) / float64(trials)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("trials=%d/workers=%d", trials, workers), func(t *testing.T) {
				got, err := PairSurvival(context.Background(), plan, trials, seed, workers, pairs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range pairs {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("pair %d: survival %v, one-trial reference %v", i, got[i], want[i])
					}
				}
				if got[len(got)-1] != 1 {
					t.Errorf("a set connected to itself survives %v of trials, want 1", got[len(got)-1])
				}
			})
		}
	}
}
