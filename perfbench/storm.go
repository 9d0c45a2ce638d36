package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"gicnet"
	"gicnet/internal/dataset"
	"gicnet/internal/geo"
	"gicnet/internal/topology"
)

// A storm round is a planner's session: five severe timelines (hundreds
// of repair faults each), two weak ones (tens of faults or none) and one
// low-latitude bridge recommendation. Severe timelines are the majority
// of the operations, so the median operation falls inside that group, not
// on a boundary between groups of unlike cost.
const (
	stormNominalRoundS = 5.3
	stormMinRounds     = 2
	bridgeSpacingKm    = 150
	bridgeTrials       = 256
	bridgeCount        = 3
	bridgeBackhaulKm   = 100 // two 50 km legs tie a bridge into the network
)

type stormKind int

const (
	severe stormKind = iota
	weak
	bridge
)

var stormRound = []struct {
	kind  stormKind
	storm gicnet.Storm
}{
	{severe, gicnet.Carrington},
	{weak, gicnet.Quebec},
	{severe, gicnet.NewYorkRailroad},
	{severe, gicnet.Carrington},
	{bridge, gicnet.Storm{}},
	{severe, gicnet.NewYorkRailroad},
	{weak, gicnet.ModerateStorm},
	{severe, gicnet.Carrington},
}

// probePairs are the target pairs whose connectivity the bridges should
// protect; round r uses pair r mod len.
var probePairs = [][2]string{{"br", "za"}, {"in", "au"}, {"sg", "ke"}}

var kindSpan = map[stormKind]string{severe: "storm.severe", weak: "storm.weak", bridge: "storm.bridge"}

type stormOp struct {
	kind   stormKind
	storm  string
	seed   uint64
	pair   [2]string
	report *gicnet.ScenarioReport
	cands  []gicnet.BridgeCandidate
	err    error
}

func runStorm(ctx context.Context, cfg runConfig) (*outcome, error) {
	rtBefore := readRuntime()
	w, setupS, err := setUpCanonical(cfg.tr)
	if err != nil {
		return nil, err
	}
	rounds := cfg.rounds(stormNominalRoundS, stormMinRounds)

	var lat timings
	var done []stormOp
	run := startWatch()
	for r := 0; r < rounds && !overTime(run); r++ {
		for i, step := range stormRound {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			op := stormOp{kind: step.kind, storm: step.storm.Name, seed: derive(cfg.seed, 'S', uint64(r), uint64(i))}
			id := len(done)
			parent := cfg.tr.begin(kindSpan[op.kind], id, -1, false)
			sw := startWatch()
			if op.kind == bridge {
				op.pair = probePairs[r%len(probePairs)]
				op.err = cfg.tr.layer("partition.Recommend", id, parent, func() (err error) {
					op.cands, err = gicnet.RecommendBridges(w, gicnet.S1(), bridgeSpacingKm, bridgeTrials, op.seed, bridgeCount, op.pair[0], op.pair[1])
					return err
				})
			} else {
				sc := gicnet.DefaultScenarioConfig()
				sc.Storm, sc.Seed = step.storm, op.seed
				op.err = cfg.tr.layer("scenario.Run", id, parent, func() (err error) {
					op.report, err = gicnet.RunScenario(w, sc)
					return err
				})
			}
			took, _ := sw.elapsed()
			lat.add(took)
			cfg.tr.end(parent)
			done = append(done, op)
		}
	}
	runS, wallS := run.elapsed()
	cpuS, rssMB, err := selfUsage()
	if err != nil {
		return nil, err
	}
	rtAfter := readRuntime()

	var tl tally
	for _, op := range done {
		tl.attempted++
		msg := ""
		switch {
		case op.err != nil:
			msg = op.err.Error()
		case op.kind == bridge:
			msg = checkBridges(w.Submarine, op.cands)
		default:
			msg = checkTimeline(w.Submarine, op.report)
		}
		if msg != "" {
			tl.fail(false, "storm %s %s seed %d: %s", kindSpan[op.kind], op.storm, op.seed, msg)
		}
	}

	out := &outcome{
		attempted: tl.attempted, failed: tl.failed, correct: tl.wrong == 0,
		e2e: map[string]float64{
			"setup_s": setupS, "run_s": runS.Seconds(), "p50_ms": median(lat),
			"cpu_s": cpuS, "peak_rss_mb": rssMB,
		},
		wallRunS: wallS.Seconds(),
	}
	if cfg.tr != nil {
		spans, self := cfg.tr.snapshot()
		layer := map[string]float64{}
		setupLayers(layer, spans, self)
		layer["scenario.severe_ms"], _ = layerMedian(spans, self, "scenario.Run", "storm.severe")
		layer["scenario.weak_ms"], _ = layerMedian(spans, self, "scenario.Run", "storm.weak")
		_, layer["scenario.alloc_mb"] = layerMedian(spans, self, "scenario.Run", "")
		layer["partition.recommend_ms"], layer["partition.alloc_mb"] = layerMedian(spans, self, "partition.Recommend", "")
		var faults int
		for _, op := range done {
			if op.report != nil {
				faults += op.report.FaultCount
			}
		}
		scenMs, _ := spanStats(spans, self, "scenario.Run", "")
		var scenS float64
		for _, ms := range scenMs {
			scenS += ms / 1e3
		}
		layer["scenario.faults_per_s"] = ratio(float64(faults), scenS)
		runtimeLayers(layer, rtBefore, rtAfter)
		out.layer = layer
	}
	return out, nil
}

// checkTimeline checks one integrated storm report against properties any
// correct repair campaign has, recomputing the isolated-node count from
// the repaired cables.
func checkTimeline(net *topology.Network, rep *gicnet.ScenarioReport) string {
	if rep.FaultCount != rep.CablesDead {
		return fmt.Sprintf("%d faults for %d dead cables", rep.FaultCount, rep.CablesDead)
	}
	if rep.FaultCount == 0 {
		if rep.Recovery != nil || rep.NodesIsolated != 0 {
			return "repair schedule or isolated nodes without any dead cable"
		}
		return ""
	}
	s := rep.Recovery
	if s == nil || len(s.Events) != rep.FaultCount {
		return fmt.Sprintf("%d faults but the schedule does not repair each exactly once", rep.FaultCount)
	}
	index := make(map[string]int, len(net.Cables))
	for ci := range net.Cables {
		index[net.Cables[ci].Name] = ci
	}
	repaired := map[int]bool{}
	ships := map[string][][2]float64{}
	restored := 0
	lastDone := 0.0
	for _, e := range s.Events {
		ci, ok := index[e.Cable]
		if !ok {
			return fmt.Sprintf("repair of unknown cable %q", e.Cable)
		}
		if repaired[ci] {
			return fmt.Sprintf("cable %q repaired twice", e.Cable)
		}
		repaired[ci] = true
		if e.Start < 0 || e.Done < e.Start {
			return fmt.Sprintf("repair of %q runs from day %.2f to %.2f", e.Cable, e.Start, e.Done)
		}
		ships[e.Ship] = append(ships[e.Ship], [2]float64{e.Start, e.Done})
		restored += e.NodesRestored
		lastDone = math.Max(lastDone, e.Done)
	}
	if math.Abs(lastDone-s.MakespanDays) > 1e-9 {
		return fmt.Sprintf("makespan %.3f, last repair done on day %.3f", s.MakespanDays, lastDone)
	}
	for ship, jobs := range ships {
		sort.Slice(jobs, func(i, j int) bool { return jobs[i][0] < jobs[j][0] })
		for i := 1; i < len(jobs); i++ {
			if jobs[i][0] < jobs[i-1][1]-1e-9 {
				return fmt.Sprintf("ship %s starts a repair on day %.3f before finishing one on day %.3f", ship, jobs[i][0], jobs[i-1][1])
			}
		}
	}
	prev := 0.0
	for _, m := range []float64{0.5, 0.9, 0.95, 1.0} {
		day, ok := s.RestoredAt[m]
		if !ok {
			return fmt.Sprintf("no day for the %.0f%% milestone", 100*m)
		}
		if day < prev-1e-9 || day > s.MakespanDays+1e-9 {
			return fmt.Sprintf("%.0f%% milestone on day %.3f (previous %.3f, makespan %.3f)", 100*m, day, prev, s.MakespanDays)
		}
		prev = day
	}
	iso := isolatedByLoss(net, repaired)
	if restored != iso || rep.NodesIsolated != iso {
		return fmt.Sprintf("repairs restore %d nodes and the report isolates %d, recomputed %d", restored, rep.NodesIsolated, iso)
	}
	return ""
}

// checkBridges checks each recommended bridge against the rules the
// recommendation promises, and its survival against the closed form for
// the band of its highest landing.
func checkBridges(net *topology.Network, cands []gicnet.BridgeCandidate) string {
	if len(cands) == 0 || len(cands) > bridgeCount {
		return fmt.Sprintf("%d bridges recommended, want 1..%d", len(cands), bridgeCount)
	}
	probs := gicnet.S1().Probs
	for _, c := range cands {
		a, okA := dataset.AnchorByName(c.From)
		b, okB := dataset.AnchorByName(c.To)
		if !okA || !okB {
			return fmt.Sprintf("bridge %s-%s names an unknown anchor", c.From, c.To)
		}
		if math.Abs(a.Coord.Lat) >= geo.MidBandCut || math.Abs(b.Coord.Lat) >= geo.MidBandCut {
			return fmt.Sprintf("bridge %s-%s lands at or above %.0f degrees", c.From, c.To, geo.MidBandCut)
		}
		if geo.RegionOf(a.Coord) == geo.RegionOf(b.Coord) {
			return fmt.Sprintf("bridge %s-%s stays inside %s", c.From, c.To, geo.RegionOf(a.Coord))
		}
		if c.LengthKm < 3000 || c.LengthKm > 12000 {
			return fmt.Sprintf("bridge %s-%s is %.0f km long", c.From, c.To, c.LengthKm)
		}
		top := math.Max(math.Abs(a.Coord.Lat), math.Abs(b.Coord.Lat))
		for _, anchor := range []dataset.Anchor{a, b} {
			if n := nearestLanding(net, anchor); n >= 0 {
				top = math.Max(top, math.Abs(net.Nodes[n].Coord.Lat))
			}
		}
		want := 1 - deathProb(probs[bandOf(top)], repeaters(c.LengthKm+bridgeBackhaulKm, bridgeSpacingKm))
		if math.Abs(c.SurvivalProb-want) > 1e-12 {
			return fmt.Sprintf("bridge %s-%s survives with %.12f, closed form %.12f", c.From, c.To, c.SurvivalProb, want)
		}
	}
	return ""
}

// nearestLanding is the existing node a bridge landing is backhauled to:
// the nearest located node, with distances inside the anchor's own
// country counted at a tenth.
func nearestLanding(net *topology.Network, a dataset.Anchor) int {
	best, bestD := -1, math.Inf(1)
	for i, nd := range net.Nodes {
		if !nd.HasCoord {
			continue
		}
		d := geo.Haversine(nd.Coord, a.Coord)
		if nd.Country == a.Country {
			d /= 10
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
