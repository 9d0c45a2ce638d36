package verify

import (
	"fmt"
	"math"
	"sort"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Result is the outcome of one named check — an invariant or a replay
// proof. Detail carries the evidence on success and the counterexample on
// failure, so a report is readable either way.
type Result struct {
	Name   string
	Passed bool
	Detail string
}

func pass(name, detail string, args ...any) Result {
	return Result{Name: name, Passed: true, Detail: fmt.Sprintf(detail, args...)}
}

func fail(name, detail string, args ...any) Result {
	return Result{Name: name, Passed: false, Detail: fmt.Sprintf(detail, args...)}
}

// Failed filters a result list down to the failures.
func Failed(rs []Result) []Result {
	var out []Result
	for _, r := range rs {
		if !r.Passed {
			out = append(out, r)
		}
	}
	return out
}

// Invariants runs the property and metamorphic checks of the model layer
// against a world. The checks are seeded (deterministic) but hold for any
// seed: a failure is a bug in the model or the engine, never noise.
func Invariants(w *dataset.World, seed uint64) []Result {
	return append([]Result{
		checkPlanProbabilities(w),
		checkIntensityMonotoneAnalytic(w),
		checkIntensityMonotoneCoupled(w, seed),
		checkRepeaterMonotone(w),
		checkAddedFailuresMonotone(w, seed),
		checkConnectivityNeverImproves(w, seed),
		checkUnionFindBFSAgreement(seed),
		checkPlanMatchesDirectPath(w, seed),
		checkSamplerEquivalence(w, seed),
		checkContractedDirectParity(w, seed),
		checkCrosslayerMonotone(w, seed),
		checkCrosslayerStrandedBounds(w, seed),
		checkCrosslayerBatchParity(w, seed),
	}, checkDownstream(w, seed)...)
}

// invariantModels are the failure models the plan-level checks cover.
func invariantModels() []failure.Model {
	return []failure.Model{
		failure.Uniform{P: 0.01},
		failure.Uniform{P: 0.5},
		failure.S1(),
		failure.S2(),
	}
}

// checkPlanProbabilities compiles every network x model x spacing plan and
// validates it: probabilities in [0,1], repeaterless cables immune,
// incidence CSR consistent.
func checkPlanProbabilities(w *dataset.World) Result {
	const name = "plan-probabilities"
	plans := 0
	for _, net := range w.Networks() {
		for _, m := range invariantModels() {
			for _, spacing := range sim.DefaultSpacings() {
				plan, err := failure.Compile(net, m, spacing)
				if err != nil {
					return fail(name, "compile %s/%s@%g: %v", net.Name, m.Name(), spacing, err)
				}
				if err := plan.Validate(); err != nil {
					return fail(name, "%v", err)
				}
				plans++
			}
		}
	}
	return pass(name, "%d plans compiled and validated across %d networks", plans, len(w.Networks()))
}

// checkIntensityMonotoneAnalytic verifies that the analytic expected cable
// failure fraction is non-decreasing in the uniform per-repeater
// probability — the "more intense storm, more failures" direction of the
// model, without Monte Carlo noise in the way.
func checkIntensityMonotoneAnalytic(w *dataset.World) Result {
	const name = "intensity-monotone-analytic"
	ps := sim.DefaultProbabilities()
	for _, net := range w.Networks() {
		prev := -1.0
		for _, p := range ps {
			frac, err := failure.ExpectedCableFrac(net, failure.Uniform{P: p}, 150)
			if err != nil {
				return fail(name, "%s p=%g: %v", net.Name, p, err)
			}
			if frac < prev {
				return fail(name, "%s: E[cable frac] decreased from %v to %v as p rose to %g",
					net.Name, prev, frac, p)
			}
			prev = frac
		}
	}
	return pass(name, "E[cable frac] non-decreasing over p=%v..%v on all networks at 150 km",
		ps[0], ps[len(ps)-1])
}

// checkIntensityMonotoneCoupled is the metamorphic sharpening of the
// analytic check: with a shared RNG stream, the per-trial dead-cable set at
// probability p is a subset of the set at any p' > p (under SampleDense,
// every repeatered cable consumes exactly one uniform draw for p in (0,1)),
// so cables failed and nodes unreachable must be monotone trial by trial.
func checkIntensityMonotoneCoupled(w *dataset.World, seed uint64) Result {
	const name = "intensity-monotone-coupled"
	const trials = 16
	net := w.Submarine
	ps := []float64{0.001, 0.01, 0.05, 0.2, 0.5, 0.9}
	type trialOutcome struct{ cables, nodes int }
	prev := make([]trialOutcome, trials)
	for pi, p := range ps {
		plan, err := failure.Compile(net, failure.Uniform{P: p}, 150)
		if err != nil {
			return fail(name, "compile p=%g: %v", p, err)
		}
		dead := plan.NewDead()
		root := xrand.New(seed)
		for ti := 0; ti < trials; ti++ {
			rng := root.SplitAt(uint64(ti))
			plan.SampleDense(dead, &rng)
			o := plan.Evaluate(dead)
			cur := trialOutcome{o.CablesFailed, o.NodesUnreachable}
			if pi > 0 {
				if cur.cables < prev[ti].cables || cur.nodes < prev[ti].nodes {
					return fail(name,
						"trial %d: raising p from %g to %g dropped failures from %+v to %+v",
						ti, ps[pi-1], p, prev[ti], cur)
				}
			}
			prev[ti] = cur
		}
	}
	return pass(name, "%d coupled trials monotone over p=%v on %s", trials, ps, net.Name)
}

// checkRepeaterMonotone verifies that shrinking the inter-repeater spacing
// (more repeaters per cable) never decreases any cable's death probability,
// from the paper's spacings down to the smallest one the model accepts.
func checkRepeaterMonotone(w *dataset.World) Result {
	const name = "repeater-monotone"
	spacings := append([]float64{20, 10, 5, 2, failure.MinSpacingKm}, sim.DefaultSpacings()...)
	sort.Sort(sort.Reverse(sort.Float64Slice(spacings))) // widest first
	for _, net := range w.Networks() {
		for _, m := range invariantModels() {
			var prev []float64
			for _, spacing := range spacings {
				plan, err := failure.Compile(net, m, spacing)
				if err != nil {
					return fail(name, "compile %s/%s@%g: %v", net.Name, m.Name(), spacing, err)
				}
				probs := plan.DeathProbs()
				if prev != nil {
					for ci := range probs {
						if probs[ci] < prev[ci]-1e-15 {
							return fail(name,
								"%s/%s cable %d: death prob fell from %v to %v when spacing shrank to %g km",
								net.Name, m.Name(), ci, prev[ci], probs[ci], spacing)
						}
					}
				}
				prev = probs
			}
		}
	}
	return pass(name, "per-cable death prob non-decreasing over spacings %v on all networks and models", spacings)
}

// checkAddedFailuresMonotone verifies the damage side of monotonicity:
// killing additional cables never resurrects a node and never merges graph
// components.
func checkAddedFailuresMonotone(w *dataset.World, seed uint64) Result {
	const name = "added-failures-monotone"
	const rounds = 8
	rng := xrand.New(seed ^ 0xadd)
	for _, net := range []*topology.Network{w.Submarine, w.Intertubes} {
		plan, err := failure.Compile(net, failure.S1(), 150)
		if err != nil {
			return fail(name, "compile %s: %v", net.Name, err)
		}
		scratch := net.Graph().NewScratch()
		nc := plan.NumCables()
		dead := plan.NewDead()
		more := plan.NewDead()
		var deadEdges graph.Bitset
		for round := 0; round < rounds; round++ {
			r := rng.SplitAt(uint64(round))
			plan.SampleInto(dead, &r)
			base := plan.Evaluate(dead)
			deadEdges = net.DeadEdgeBitsInto(deadEdges, dead)
			baseComponents := scratch.ComponentsBits(deadEdges).Sets()
			// Kill a random batch of additional cables.
			more.CopyFrom(dead)
			for k := 0; k < 1+nc/20; k++ {
				more.Set(r.Intn(nc))
			}
			after := plan.Evaluate(more)
			deadEdges = net.DeadEdgeBitsInto(deadEdges, more)
			afterComponents := scratch.ComponentsBits(deadEdges).Sets()
			if after.CablesFailed < base.CablesFailed || after.NodesUnreachable < base.NodesUnreachable {
				return fail(name, "%s round %d: extra failures improved outcome %+v -> %+v",
					net.Name, round, base, after)
			}
			if afterComponents < baseComponents {
				return fail(name, "%s round %d: extra failures merged components %d -> %d",
					net.Name, round, baseComponents, afterComponents)
			}
		}
	}
	return pass(name, "%d rounds: unreachable count and component count never decreased under added failures", rounds)
}

// checkConnectivityNeverImproves verifies that a country pair disconnected
// under a failure set stays disconnected under any superset — the
// metamorphic form of "connectivity never increases under added failures"
// on the analysis the paper actually runs.
func checkConnectivityNeverImproves(w *dataset.World, seed uint64) Result {
	const name = "connectivity-never-improves"
	const rounds = 6
	net := w.Submarine
	pairs := [][2]string{{"us", "gb"}, {"sg", "in"}, {"au", "nz"}, {"br", "us"}}
	plan, err := failure.Compile(net, failure.S1(), 150)
	if err != nil {
		return fail(name, "compile: %v", err)
	}
	scratch := net.Graph().NewScratch()
	rng := xrand.New(seed ^ 0xc0)
	nc := plan.NumCables()
	dead := plan.NewDead()
	more := plan.NewDead()
	var deadEdges, moreEdges graph.Bitset
	checked := 0
	for round := 0; round < rounds; round++ {
		r := rng.SplitAt(uint64(round))
		plan.SampleInto(dead, &r)
		more.CopyFrom(dead)
		for k := 0; k < 1+nc/10; k++ {
			more.Set(r.Intn(nc))
		}
		deadEdges = net.DeadEdgeBitsInto(deadEdges, dead)
		moreEdges = net.DeadEdgeBitsInto(moreEdges, more)
		for _, pair := range pairs {
			from := nodeIDs(net.NodesOfCountry(pair[0]))
			to := nodeIDs(net.NodesOfCountry(pair[1]))
			if len(from) == 0 || len(to) == 0 {
				return fail(name, "pair %v resolves to empty node sets", pair)
			}
			before := scratch.AnyConnectedBits(deadEdges, from, to)
			after := scratch.AnyConnectedBits(moreEdges, from, to)
			if after && !before {
				return fail(name, "round %d: %s-%s disconnected under %d failures but connected under %d",
					round, pair[0], pair[1], dead.Count(), more.Count())
			}
			checked++
		}
	}
	return pass(name, "%d pair checks: connectivity never appeared under added failures", checked)
}

func nodeIDs(xs []int) []graph.NodeID {
	out := make([]graph.NodeID, len(xs))
	for i, x := range xs {
		out[i] = graph.NodeID(x)
	}
	return out
}

// checkUnionFindBFSAgreement cross-validates the two connectivity
// implementations on random graphs: every BFS reachable set must be
// exactly one union-find component, and the component count from the two
// algorithms must agree under random dead-edge sets.
func checkUnionFindBFSAgreement(seed uint64) Result {
	const name = "unionfind-bfs-agreement"
	rng := xrand.New(seed ^ 0xbf5)
	const graphs = 6
	for gi := 0; gi < graphs; gi++ {
		r := rng.SplitAt(uint64(gi))
		n := 2 + r.Intn(40)
		m := r.Intn(3 * n)
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("n%d", i))
		}
		for e := 0; e < m; e++ {
			g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))) // self-loops allowed
		}
		dead := graph.NewBitset(g.NumEdges())
		for e := 0; e < g.NumEdges(); e++ {
			if !r.Bool(0.6) {
				dead.Set(e)
			}
		}
		scratch := g.NewScratch()
		uf := scratch.ComponentsBits(dead)
		// BFS flood fill from every unvisited node; compare against the
		// union-find labelling.
		visited := make([]bool, n)
		bfsComponents := 0
		var buf []graph.NodeID
		for start := 0; start < n; start++ {
			if visited[start] {
				continue
			}
			bfsComponents++
			var err error
			buf, err = scratch.Reachable(buf[:0], graph.NodeID(start), dead)
			if err != nil {
				return fail(name, "graph %d: reachable(%d): %v", gi, start, err)
			}
			root := uf.Find(start)
			for _, node := range buf {
				visited[int(node)] = true
				if uf.Find(int(node)) != root {
					return fail(name, "graph %d (n=%d m=%d): node %d reachable from %d but in a different union-find component",
						gi, n, m, node, start)
				}
			}
		}
		if _, ufCount := g.Components(dead); ufCount != bfsComponents {
			return fail(name, "graph %d (n=%d m=%d): union-find sees %d components, BFS sees %d",
				gi, n, m, ufCount, bfsComponents)
		}
	}
	return pass(name, "%d random graphs: BFS and union-find agree on components under random masks", graphs)
}

// checkPlanMatchesDirectPath verifies the compiled fast path against the
// per-cable reference path: the plan's dense sampler must match
// referenceSample draw for draw, and the bitset Evaluate must agree with
// referenceEvaluate on both dense- and sparse-sampled realisations.
func checkPlanMatchesDirectPath(w *dataset.World, seed uint64) Result {
	const name = "plan-matches-direct-path"
	const trials = 8
	for _, net := range w.Networks() {
		for _, m := range []failure.Model{failure.Uniform{P: 0.03}, failure.S1()} {
			plan, err := failure.Compile(net, m, 150)
			if err != nil {
				return fail(name, "compile %s/%s: %v", net.Name, m.Name(), err)
			}
			dead := plan.NewDead()
			root := xrand.New(seed ^ 0xe9)
			for ti := 0; ti < trials; ti++ {
				rngPlan := root.SplitAt(uint64(ti))
				rngDirect := root.SplitAt(uint64(ti))
				plan.SampleDense(dead, &rngPlan)
				direct, err := referenceSample(net, m, 150, &rngDirect)
				if err != nil {
					return fail(name, "sample %s/%s: %v", net.Name, m.Name(), err)
				}
				for ci := range net.Cables {
					if dead.Get(ci) != direct.Get(ci) {
						return fail(name, "%s/%s trial %d: plan and direct sampling disagree on cable %d",
							net.Name, m.Name(), ti, ci)
					}
				}
				po := plan.Evaluate(dead)
				fo := referenceEvaluate(net, direct)
				if po != fo {
					return fail(name, "%s/%s trial %d: plan outcome %+v != direct outcome %+v",
						net.Name, m.Name(), ti, po, fo)
				}
				// The sparse sampler draws a different stream; its
				// realisations must still evaluate identically on both paths.
				rngSparse := root.SplitAt(uint64(ti) ^ 0x5a)
				plan.SampleInto(dead, &rngSparse)
				if po, fo := plan.Evaluate(dead), referenceEvaluate(net, dead); po != fo {
					return fail(name, "%s/%s trial %d: sparse realisation: plan outcome %+v != direct outcome %+v",
						net.Name, m.Name(), ti, po, fo)
				}
			}
		}
	}
	return pass(name, "plan sampling and evaluation bit-identical to the direct path on all networks")
}

// checkSamplerEquivalence is the old-vs-new sampler distribution proof: the
// sparse geometric-skip sampler must produce the same per-cable death
// distribution as the dense one-Bernoulli-per-cable path. Over N trials each
// cable's death count D_i is Binomial(N, p_i); the standardised statistic
// X = sum_i (D_i - N p_i)^2 / (N p_i (1-p_i)) over the k cables with
// p in (0,1) is chi-square with k degrees of freedom, so |X - k| stays well
// inside 6*sqrt(2k) for any honest sampler (a ~1e-9 false-positive bound).
// Both samplers are tested against the analytic marginals, and against each
// other via the two-sample homogeneity form of the same statistic.
func checkSamplerEquivalence(w *dataset.World, seed uint64) Result {
	const name = "sampler-chi-square-equivalence"
	const trials = 100000
	net := w.Submarine
	plan, err := failure.Compile(net, failure.Uniform{P: 0.003}, 150)
	if err != nil {
		return fail(name, "compile: %v", err)
	}
	nc := plan.NumCables()
	dead := plan.NewDead()
	sparse := make([]float64, nc) // death counts per cable
	dense := make([]float64, nc)
	rootSparse := xrand.New(seed ^ 0xc415)
	rootDense := xrand.New(seed ^ 0xd295)
	for ti := 0; ti < trials; ti++ {
		rng := rootSparse.SplitAt(uint64(ti))
		plan.SampleInto(dead, &rng)
		for ci := 0; ci < nc; ci++ {
			if dead.Get(ci) {
				sparse[ci]++
			}
		}
		rng = rootDense.SplitAt(uint64(ti))
		plan.SampleDense(dead, &rng)
		for ci := 0; ci < nc; ci++ {
			if dead.Get(ci) {
				dense[ci]++
			}
		}
	}
	k := 0.0
	var xSparse, xDense, xCross float64
	for ci := 0; ci < nc; ci++ {
		p := plan.DeathProb(ci)
		if p <= 0 || p >= 1 {
			continue
		}
		k++
		v := float64(trials) * p * (1 - p)
		dS := sparse[ci] - float64(trials)*p
		dD := dense[ci] - float64(trials)*p
		xSparse += dS * dS / v
		xDense += dD * dD / v
		dC := sparse[ci] - dense[ci]
		xCross += dC * dC / (2 * v)
	}
	if k == 0 {
		return fail(name, "no cables with non-degenerate probability")
	}
	bound := 6 * math.Sqrt(2*k)
	for _, c := range []struct {
		label string
		x     float64
	}{{"sparse-vs-analytic", xSparse}, {"dense-vs-analytic", xDense}, {"sparse-vs-dense", xCross}} {
		if math.Abs(c.x-k) > bound {
			return fail(name, "%s: chi-square %0.1f for %0.0f dof exceeds %0.0f±%0.1f over %d trials",
				c.label, c.x, k, k, bound, trials)
		}
	}
	return pass(name, "per-cable death counts over %d trials: chi-square %0.1f/%0.1f/%0.1f vs %0.0f dof (bound ±%0.1f)",
		trials, xSparse, xDense, xCross, k, bound)
}
