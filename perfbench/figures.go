package main

import (
	"context"
	"fmt"
	"math"

	"gicnet"
	"gicnet/internal/experiments"
	"gicnet/internal/topology"
)

// One figures operation regenerates the paper's Monte Carlo figure set at
// one seed, as `reproduce -only fig67,fig8,country,crosslayer,ext-tail`
// does. Per-experiment trial budgets are balanced so that no experiment
// takes most of a pass on the reference host (about 0.3-0.5 s each).
const (
	figTrials67      = 600   // per sweep point: 9 cells x 10 probabilities
	figTrials8       = 12000 // per S1/S2 x spacing x network row
	figTrialsCountry = 80    // Countries runs 10x this per partner pair
	figTrialsCross   = 512   // per cross-layer sweep point (floor 256)
	figTrialsTail    = 8192  // per tail point and estimator (floor 4096)
	figNominalPassS  = 1.5   // one pass on the reference host
	figMinPasses     = 5
)

// checkSigmas is how many standard errors a Monte Carlo mean may sit from
// its exact value before the check fails it, and checkPValue the matching
// one-sided tail probability for exact count tests. Each run makes a few
// thousand such comparisons, so both are wide enough that a correct
// program essentially never trips them.
const (
	checkSigmas = 6
	checkPValue = 1e-9
)

// tailHalfWidths is how many half-widths of the estimator's own 95%
// interval the rare-event tail may sit from the exact Poisson-binomial
// value.
const tailHalfWidths = 3

type figurePass struct {
	seed      uint64
	fig67     *experiments.Fig67Result
	fig8      *experiments.Fig8Result
	countries *experiments.CountryResult
	cross     *experiments.CrossLayerResult
	tail      *experiments.ExtTailResult
	err       error
}

func runFigures(ctx context.Context, cfg runConfig) (*outcome, error) {
	rtBefore := readRuntime()
	w, setupS, err := setUpCanonical(cfg.tr)
	if err != nil {
		return nil, err
	}
	passes := cfg.rounds(figNominalPassS, figMinPasses)
	hits0, misses0 := contractionStats(w)

	var lat timings
	var done []figurePass
	run := startWatch()
	for i := 0; i < passes && !overTime(run); i++ {
		sw := startWatch()
		p := figuresPass(ctx, cfg.tr, w, derive(cfg.seed, 'F', uint64(i)), i)
		took, _ := sw.elapsed()
		lat.add(took)
		done = append(done, p)
	}
	runS, wallS := run.elapsed()
	cpuS, rssMB, err := selfUsage()
	if err != nil {
		return nil, err
	}
	rtAfter := readRuntime()
	hits1, misses1 := contractionStats(w)

	var tl tally
	for _, p := range done {
		tl.attempted++
		if p.err != nil {
			tl.fail(false, "figures seed %d: %v", p.seed, p.err)
			continue
		}
		if msg := checkFigures(w, p); msg != "" {
			tl.fail(false, "figures seed %d: %s", p.seed, msg)
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
		for _, e := range []struct{ metric, span string }{
			{"experiments.fig67_ms", "experiments.Fig67"},
			{"experiments.fig8_ms", "experiments.Fig8"},
			{"experiments.countries_ms", "experiments.Countries"},
			{"experiments.crosslayer_ms", "experiments.CrossLayer"},
			{"experiments.tail_ms", "experiments.ExtTail"},
		} {
			layer[e.metric], _ = layerMedian(spans, self, e.span, "figures.pass")
		}
		allocByPass := map[int]float64{}
		var loopNs float64
		for i, s := range spans {
			if s.Parent < 0 || spans[s.Parent].Name != "figures.pass" {
				continue
			}
			allocByPass[s.Op] += float64(s.AllocBytes) / (1 << 20)
			if trialLoops[s.Name] {
				loopNs += float64(self[i])
			}
		}
		var allocs []float64
		for _, mb := range allocByPass {
			allocs = append(allocs, mb)
		}
		layer["experiments.alloc_mb"] = median(allocs)
		var trials int
		for _, p := range done {
			trials += loopTrials(p)
		}
		layer["sim.trials_per_s"] = ratio(float64(trials), loopNs/1e9)
		layer["topology.contraction_hit_ratio"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
		var ess []float64
		for _, p := range done {
			if p.tail != nil {
				ess = append(ess, essShare(p.tail))
			}
		}
		layer["rare.ess_share"] = median(ess)
		runtimeLayers(layer, rtBefore, rtAfter)
		out.layer = layer
	}
	return out, nil
}

// figuresPass runs the five Monte Carlo experiments at one seed, each in
// its own span.
func figuresPass(ctx context.Context, tr *tracer, w *gicnet.World, seed uint64, op int) figurePass {
	p := figurePass{seed: seed}
	parent := tr.begin("figures.pass", op, -1, false)
	defer tr.end(parent)
	conf := func(trials int) experiments.Config { return experiments.Config{Trials: trials, Seed: seed} }
	steps := []struct {
		name string
		run  func() error
	}{
		{"experiments.Fig67", func() (err error) { p.fig67, err = experiments.Fig67(ctx, w, conf(figTrials67)); return }},
		{"experiments.Fig8", func() (err error) { p.fig8, err = experiments.Fig8(ctx, w, conf(figTrials8)); return }},
		{"experiments.Countries", func() (err error) {
			p.countries, err = experiments.Countries(ctx, w, conf(figTrialsCountry), experiments.DefaultCountryCases())
			return
		}},
		{"experiments.CrossLayer", func() (err error) { p.cross, err = experiments.CrossLayer(ctx, w, conf(figTrialsCross)); return }},
		{"experiments.ExtTail", func() (err error) { p.tail, err = experiments.ExtTail(ctx, w, conf(figTrialsTail)); return }},
	}
	for _, s := range steps {
		if err := tr.layer(s.name, op, parent, s.run); err != nil {
			p.err = fmt.Errorf("%s: %w", s.name, err)
			return p
		}
	}
	return p
}

// trialLoops names the experiments that are nothing but Monte Carlo trial
// loops; sim.trials_per_s divides their trials by their self time.
// Countries and CrossLayer are left out because each call also builds an
// index (core.NewAnalyzer, crosslayer.Compile) that is not trial work.
var trialLoops = map[string]bool{"experiments.Fig67": true, "experiments.Fig8": true, "experiments.ExtTail": true}

// loopTrials counts the trials a pass's trial-loop experiments ran, from
// their results.
func loopTrials(p figurePass) int {
	n := 0
	if p.fig67 != nil {
		for _, c := range p.fig67.Cells {
			n += len(c.Probs) * figTrials67
		}
	}
	if p.fig8 != nil {
		n += len(p.fig8.Rows) * figTrials8
	}
	if p.tail != nil {
		n += p.tail.Trials * (len(p.tail.Plain) + len(p.tail.ISQMC))
	}
	return n
}

// essShare is the mean effective-sample share of the tilted estimator's
// tail points.
func essShare(r *experiments.ExtTailResult) float64 {
	if len(r.ISQMC) == 0 || r.Trials == 0 {
		return 0
	}
	var sum float64
	for _, pt := range r.ISQMC {
		sum += pt.ESS / float64(r.Trials)
	}
	return sum / float64(len(r.ISQMC))
}

func contractionStats(w *gicnet.World) (hits, misses uint64) {
	for _, n := range w.Networks() {
		h, m := n.ContractionCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

func networkByName(w *gicnet.World, name string) *topology.Network {
	for _, n := range w.Networks() {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// checkFigures compares one pass against exact values computed from the
// world's raw cable lengths and coordinates. It returns "" when every
// comparison holds, else the first disagreement.
func checkFigures(w *gicnet.World, p figurePass) string {
	for _, cell := range p.fig67.Cells {
		net := networkByName(w, cell.Network)
		if net == nil {
			return fmt.Sprintf("fig67: unknown network %q", cell.Network)
		}
		for k, prob := range cell.Probs {
			q := uniformProbs(net, prob, cell.SpacingKm)
			mean, se := cableFracMoments(q, figTrials67)
			if d := math.Abs(cell.CableMean[k] - 100*mean); d > 100*checkSigmas*se+1e-9 {
				return fmt.Sprintf("fig67 %s %.0fkm p=%g: cable mean %.4f%%, exact %.4f%%", cell.Network, cell.SpacingKm, prob, cell.CableMean[k], 100*mean)
			}
			if prob >= 1 {
				if msg := checkCertainDeath(net, cell.SpacingKm, cell.CableStd[k], cell.NodeMean[k], cell.NodeStd[k]); msg != "" {
					return fmt.Sprintf("fig67 %s %.0fkm p=1: %s", cell.Network, cell.SpacingKm, msg)
				}
			}
		}
	}
	for _, row := range p.fig8.Rows {
		net := networkByName(w, row.Network)
		model := gicnet.S1()
		if row.State == "S2" {
			model = gicnet.S2()
		}
		mean, se := cableFracMoments(tieredProbs(net, model.Probs, row.SpacingKm), figTrials8)
		if d := math.Abs(row.CablePct - 100*mean); d > 100*checkSigmas*se+1e-9 {
			return fmt.Sprintf("fig8 %s %.0fkm %s: cable %.4f%%, exact %.4f%%", row.State, row.SpacingKm, row.Network, row.CablePct, 100*mean)
		}
	}
	for _, state := range []string{"S1", "S2"} {
		model := gicnet.S1()
		if state == "S2" {
			model = gicnet.S2()
		}
		q := tieredProbs(w.Submarine, model.Probs, 150)
		for _, rep := range p.countries.Reports[state] {
			from := targetNodes(w.Submarine, string(rep.Target))
			for _, c := range rep.Partners {
				// Pair survival can only exceed direct-cable survival, so
				// the trials that lost the pair are at most as many as a
				// Binomial(trials, every-direct-cable-dies) draw.
				allDead := directAllDead(w.Submarine, q, from, targetNodes(w.Submarine, string(c.To)))
				lost := int(math.Round((1 - c.SurvivalProb) * float64(c.Trials)))
				if binomialTailAtLeast(c.Trials, lost, allDead) < checkPValue {
					return fmt.Sprintf("countries %s %s-%s: pair survival %.4f below direct-cable survival %.6f", state, rep.Target, c.To, c.SurvivalProb, 1-allDead)
				}
			}
		}
	}
	if p.tail.Threshold != 2 {
		return fmt.Sprintf("tail: threshold %d, the exact check covers 2", p.tail.Threshold)
	}
	for _, pt := range p.tail.ISQMC {
		exact := tailAtLeast2(uniformProbs(w.Submarine, pt.P, p.tail.SpacingKm))
		half := (pt.TailCI.Hi - pt.TailCI.Lo) / 2
		if math.Abs(pt.TailProb-exact) > tailHalfWidths*half+1e-15 {
			return fmt.Sprintf("tail p=%g: estimate %.4e [%.4e, %.4e], exact %.4e", pt.P, pt.TailProb, pt.TailCI.Lo, pt.TailCI.Hi, exact)
		}
	}
	return ""
}

// checkCertainDeath checks a p=1 sweep point exactly: every cable with a
// repeater dies in every trial, so the cable spread is zero and the
// unreachable nodes are exactly those whose every cable has a repeater.
func checkCertainDeath(net *topology.Network, spacingKm, cableStd, nodeMean, nodeStd float64) string {
	if cableStd > 1e-9 || nodeStd > 1e-9 {
		return fmt.Sprintf("spread %.3g/%.3g, want 0", cableStd, nodeStd)
	}
	lost := map[int]bool{}
	for ci := range net.Cables {
		if repeaters(cableLength(&net.Cables[ci]), spacingKm) >= 1 {
			lost[ci] = true
		}
	}
	connected := connectedNodes(net)
	want := 100 * float64(isolatedByLoss(net, lost)) / float64(connected)
	if math.Abs(nodeMean-want) > 1e-9 {
		return fmt.Sprintf("node mean %.6f%%, exact %.6f%%", nodeMean, want)
	}
	return ""
}

// connectedNodes counts nodes with at least one cable.
func connectedNodes(net *topology.Network) int {
	touched := make([]bool, len(net.Nodes))
	for _, c := range net.Cables {
		for _, s := range c.Segments {
			touched[s.A], touched[s.B] = true, true
		}
	}
	n := 0
	for _, t := range touched {
		if t {
			n++
		}
	}
	return n
}
