package gicnet

// Benchmarks: one per paper table/figure plus the design-choice ablations
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its artifact end to end (on the cached
// default world), so ns/op is the cost of reproducing that figure.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gicnet/internal/core"
	"gicnet/internal/crosslayer"
	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/gic"
	"gicnet/internal/graph"
	"gicnet/internal/grid"
	"gicnet/internal/partition"
	"gicnet/internal/rare"
	"gicnet/internal/recovery"
	"gicnet/internal/resilience"
	"gicnet/internal/routing"
	"gicnet/internal/satellite"
	"gicnet/internal/scenario"
	"gicnet/internal/serve"
	"gicnet/internal/serve/loadtest"
	"gicnet/internal/shutdown"
	"gicnet/internal/sim"
	"gicnet/internal/solar"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

func benchWorld(b *testing.B) *dataset.World {
	b.Helper()
	if testing.Short() {
		b.Skip("end-to-end figure benchmarks skipped in short mode")
	}
	w, err := dataset.Default()
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchCfg() experiments.Config {
	return experiments.Config{Trials: 10, Seed: dataset.DefaultSeed}
}

func BenchmarkFig3LatitudePDF(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aCableEndpointDistribution(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4a(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4bInfraDistribution(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4b(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5LengthCDF(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6CableFailures regenerates the full Figure 6/7 sweep (the
// paper computes both from the same runs; so do we — this is the joint
// cost).
func BenchmarkFig6CableFailures(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig67(ctx, w, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7NodeFailures isolates the per-run node-unreachability cost
// on the submarine network (Figure 7's marginal work over Figure 6).
func BenchmarkFig7NodeFailures(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	cfg := sim.Config{Model: failure.Uniform{P: 0.01}, SpacingKm: 150, Trials: 10, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(ctx, w.Submarine, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8NonUniform(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(ctx, w, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9aASReach(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9bASSpread(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Routers.SpreadSample()
	}
}

func BenchmarkCountryConnectivity(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	cases := experiments.DefaultCountryCases()
	cfg := experiments.Config{Trials: 2, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Countries(ctx, w, cfg, cases); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountryConnectivityFigures runs the country analysis at the
// figures workload's budget: Trials 80, which is 800 trials per partner
// pair. BenchmarkCountryConnectivity keeps its 20 per pair, so older
// snapshots still compare.
func BenchmarkCountryConnectivityFigures(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	cases := experiments.DefaultCountryCases()
	cfg := experiments.Config{Trials: 80, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Countries(ctx, w, cfg, cases); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystemsResilience(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Systems(w); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension / ablation benchmarks ---

func BenchmarkShutdownPlanner(b *testing.B) {
	w := benchWorld(b)
	opts := shutdown.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shutdown.PlanShutdown(w.Submarine, gic.Quebec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyAugmentation(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Recommend(w, failure.S1(), 150, 10, 1, 3, "nz", "us"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridCoupling(b *testing.B) {
	w := benchWorld(b)
	probs := failure.S1().Probs
	gm := grid.DefaultModel(probs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grid.Compare(w.Submarine, failure.S2(), gm, 150, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSatelliteDecay(b *testing.B) {
	rng := xrand.New(1)
	c := satellite.Starlink()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := satellite.SimulateDecay(c, gic.Carrington, 14, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrafficRouting(b *testing.B) {
	w := benchWorld(b)
	demands := routing.DefaultDemands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.Route(w.Submarine, demands, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryPlanning(b *testing.B) {
	w := benchWorld(b)
	plan, err := failure.Compile(w.Submarine, failure.S2(), 150)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(7)
	dead := plan.NewDead()
	plan.SampleDense(dead, rng)
	faults, err := recovery.FaultsFrom(w.Submarine, dead, 150, 0.1, rng)
	if err != nil {
		b.Fatal(err)
	}
	fleet := recovery.DefaultFleet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recovery.PlanRecovery(w.Submarine, faults, fleet, recovery.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResilienceSuite(b *testing.B) {
	w := benchWorld(b)
	p := resilience.GooglePlacement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resilience.Evaluate(w, p, failure.S1(), 150, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullScenario(b *testing.B) {
	w := benchWorld(b)
	cfg := scenario.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolarRiskModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := solar.ModulatedDecadeRisk(0.09, 2020); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: Monte Carlo estimate vs the analytic expected cable fraction —
// quantifies what the sampling layer costs over the closed form.
func BenchmarkAblationAnalyticVsMonteCarlo(b *testing.B) {
	w := benchWorld(b)
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := failure.ExpectedCableFrac(w.Submarine, failure.S1(), 150); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("montecarlo-10", func(b *testing.B) {
		ctx := context.Background()
		cfg := sim.Config{Model: failure.S1(), SpacingKm: 150, Trials: 10, Seed: 1}
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(ctx, w.Submarine, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: endpoint vs path latitude banding (the paper's simplification
// vs the physically strict rule).
func BenchmarkAblationBanding(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtBanding(ctx, w, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: serial vs parallel trial execution in the simulation engine.
func BenchmarkAblationSimWorkers(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers-4"}[workers], func(b *testing.B) {
			cfg := sim.Config{Model: failure.S1(), SpacingKm: 150, Trials: 64, Seed: 1, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(ctx, w.Submarine, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Serving throughput: the example-workload mix through gicnetd's engine
// (internal/serve) with every tier enabled versus the no-tier baseline.
// One op is one full mix (256 requests, 8 clients); both sub-benchmarks
// report req/s and the worst per-run p99 latency, which cmd/benchdiff
// gates: full must sustain at least 3x the baseline's req/s, and its p99
// must be no worse. Both servers pin the same cached world, so the gap
// measured is the serving tiers' — plan reuse, result cache, dedup and
// sweep batching — not world-generation amortisation.
func BenchmarkServeMix(b *testing.B) {
	w := benchWorld(b)
	opts := loadtest.Options{Requests: 256, Concurrency: 8}
	for _, mode := range []string{"nocache", "full"} {
		b.Run(mode, func(b *testing.B) {
			srv, err := serve.New(serve.Config{
				Worlds: []*dataset.World{w}, Shards: 2, WorkersPerShard: 2,
				Baseline: mode == "nocache",
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			var served int
			var busy time.Duration
			var worstP99 time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := loadtest.Run(context.Background(), srv, opts)
				if err != nil {
					b.Fatal(err)
				}
				served += rep.Requests
				busy += rep.Duration
				if rep.P99 > worstP99 {
					worstP99 = rep.P99
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(served)/busy.Seconds(), "req/s")
			b.ReportMetric(float64(worstP99.Nanoseconds()), "p99-ns")
		})
	}
}

// Ablation: world generation cost by dataset.
func BenchmarkWorldGeneration(b *testing.B) {
	if testing.Short() {
		b.Skip("world generation benchmark skipped in short mode")
	}
	b.Run("submarine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dataset.GenerateSubmarine(dataset.DefaultSubmarineConfig(), xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("intertubes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dataset.GenerateIntertubes(dataset.DefaultIntertubesConfig(), xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("itu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dataset.GenerateITU(dataset.DefaultITUConfig(), xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("routers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dataset.GenerateRouters(dataset.DefaultRouterConfig(), xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- performance-architecture benchmarks (plan / scratch / sweep layers) ---

// BenchmarkTrialLoop is the allocation-regression guard on the real
// submarine network: one steady-state Monte Carlo trial (sample + evaluate)
// through a compiled plan must report 0 allocs/op.
func BenchmarkTrialLoop(b *testing.B) {
	benchTrialLoop(b, failure.S1())
}

// BenchmarkTrialLoopLowP is the sparse-sampler showcase: at p=0.001 almost
// every cable survives, so geometric skip sampling touches only a handful
// of cables per trial instead of drawing one Bernoulli per cable.
func BenchmarkTrialLoopLowP(b *testing.B) {
	benchTrialLoop(b, failure.Uniform{P: 0.001})
}

func benchTrialLoop(b *testing.B, m failure.Model) {
	w := benchWorld(b)
	plan, err := failure.Compile(w.Submarine, m, 150)
	if err != nil {
		b.Fatal(err)
	}
	dead := plan.NewDead()
	root := xrand.New(dataset.DefaultSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := root.SplitAt(uint64(i))
		plan.SampleInto(dead, &rng)
		_ = plan.Evaluate(dead)
	}
}

// BenchmarkTrialLoopHighP measures the trial loop at p=0.1 — the paper's
// high-probability sweep region, where evaluation rather than sampling
// dominates — in scalar and trial-block form, plus the isolated evaluate
// kernels the speedup gate names. Every sub-benchmark reports ns per TRIAL
// (the batched loops advance b.N trials across blocks), so the numbers
// compare directly. `make bench-check` gates evaluate-batched at ≥2× over
// evaluate-scalar, re-proving the block evaluator's claim on every run.
func BenchmarkTrialLoopHighP(b *testing.B) {
	w := benchWorld(b)
	plan, err := failure.Compile(w.Submarine, failure.Uniform{P: 0.1}, 150)
	if err != nil {
		b.Fatal(err)
	}
	var scratch failure.BatchScratch
	scratch.Grow(plan)
	outcomes := make([]failure.Outcome, failure.MaxBatch)
	root := xrand.New(dataset.DefaultSeed)
	b.Run("scalar", func(b *testing.B) {
		dead := plan.NewDead()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := root.SplitAt(uint64(i))
			plan.SampleInto(dead, &rng)
			_ = plan.Evaluate(dead)
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for t0 := 0; t0 < b.N; t0 += failure.MaxBatch {
			n := b.N - t0
			if n > failure.MaxBatch {
				n = failure.MaxBatch
			}
			plan.SampleBatch(&scratch, root, uint64(t0), n)
			plan.EvaluateBatch(&scratch, n, outcomes[:n])
		}
	})
	// The evaluate pair scores the same pre-sampled block through each
	// path, isolating evaluation from RNG and sampling cost.
	plan.SampleBatch(&scratch, root, 0, failure.MaxBatch)
	b.Run("evaluate-scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = plan.Evaluate(scratch.Row(i % failure.MaxBatch))
		}
	})
	b.Run("evaluate-batched", func(b *testing.B) {
		b.ReportAllocs()
		for t0 := 0; t0 < b.N; t0 += failure.MaxBatch {
			n := b.N - t0
			if n > failure.MaxBatch {
				n = failure.MaxBatch
			}
			plan.EvaluateBatch(&scratch, n, outcomes[:n])
		}
	})
	// The counters' best case: every ITU cable dies at p=1 and 50 km, so
	// each of the 7,254 vulnerable nodes dies in every trial.
	itu, err := failure.Compile(w.ITU, failure.Uniform{P: 1}, 50)
	if err != nil {
		b.Fatal(err)
	}
	var ituScratch failure.BatchScratch
	ituScratch.Grow(itu)
	itu.SampleBatch(&ituScratch, root, 0, failure.MaxBatch)
	b.Run("evaluate-batched-itu-p1", func(b *testing.B) {
		b.ReportAllocs()
		for t0 := 0; t0 < b.N; t0 += failure.MaxBatch {
			n := b.N - t0
			if n > failure.MaxBatch {
				n = failure.MaxBatch
			}
			itu.EvaluateBatch(&ituScratch, n, outcomes[:n])
		}
	})
	// The Fig 6/7 cell where the transposes weigh most: ITU at p=0.05 and
	// 50 km, 184 words per trial and 7,254 vulnerable nodes.
	itu50, err := failure.Compile(w.ITU, failure.Uniform{P: 0.05}, 50)
	if err != nil {
		b.Fatal(err)
	}
	var itu50Scratch failure.BatchScratch
	itu50Scratch.Grow(itu50)
	itu50.SampleBatch(&itu50Scratch, root, 0, failure.MaxBatch)
	b.Run("evaluate-batched-itu-50km", func(b *testing.B) {
		b.ReportAllocs()
		for t0 := 0; t0 < b.N; t0 += failure.MaxBatch {
			n := b.N - t0
			if n > failure.MaxBatch {
				n = failure.MaxBatch
			}
			itu50.EvaluateBatch(&itu50Scratch, n, outcomes[:n])
		}
	})
}

// BenchmarkBitsetKernels times the multi-word popcount on its own, at the
// real network's mask width (8 words = 470 cables) and at widths deep into
// the vector path, so kernel-level regressions are visible before they
// surface in trial-loop numbers.
func BenchmarkBitsetKernels(b *testing.B) {
	rng := xrand.New(dataset.DefaultSeed)
	for _, words := range []int{8, 64, 512} {
		x := make(graph.Bitset, words)
		for i := range x {
			x[i] = rng.Uint64()
		}
		b.Run(fmt.Sprintf("popcount-%dw", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = graph.PopcountWords(x)
			}
		})
	}
}

// BenchmarkSampleSparse isolates the two sampling strategies at p=0.001 on
// the submarine network: "sparse" is the compiled geometric-skip program
// every simulation runs, "dense" the one-Bernoulli-per-cable SampleDense
// that the verification layer uses to couple the plan to the uncompiled
// path.
func BenchmarkSampleSparse(b *testing.B) {
	w := benchWorld(b)
	plan, err := failure.Compile(w.Submarine, failure.Uniform{P: 0.001}, 150)
	if err != nil {
		b.Fatal(err)
	}
	dead := plan.NewDead()
	root := xrand.New(dataset.DefaultSeed)
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := root.SplitAt(uint64(i))
			plan.SampleInto(dead, &rng)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := root.SplitAt(uint64(i))
			plan.SampleDense(dead, &rng)
		}
	})
}

// BenchmarkSampleProgram times the pseudo-random sampling program alone,
// one trial per op (ns/op is ns per trial), on one plan per mechanism:
// "dense" (ITU, p=0.2 at 50 km) is mostly per-cable threshold compares,
// "skips" (ITU, p=0.01 at 50 km) mostly table-driven geometric skips, and
// "s1" (submarine, S1 at 150 km) the mix of a latitude-tiered model.
func BenchmarkSampleProgram(b *testing.B) {
	w := benchWorld(b)
	cases := []struct {
		name      string
		net       *topology.Network
		model     failure.Model
		spacingKm float64
	}{
		{"dense", w.ITU, failure.Uniform{P: 0.2}, 50},
		{"skips", w.ITU, failure.Uniform{P: 0.01}, 50},
		{"s1", w.Submarine, failure.S1(), 150},
	}
	for _, c := range cases {
		plan, err := failure.Compile(c.net, c.model, c.spacingKm)
		if err != nil {
			b.Fatal(err)
		}
		dead := plan.NewDead()
		root := xrand.New(dataset.DefaultSeed)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := root.SplitAt(uint64(i))
				plan.SampleInto(dead, &rng)
			}
		})
	}
}

// BenchmarkBitsetEvaluate isolates the word-level outcome kernel: popcount
// over the dead mask plus the incidence-mask unreachable-node test, on a
// fixed pre-sampled realisation.
func BenchmarkBitsetEvaluate(b *testing.B) {
	w := benchWorld(b)
	plan, err := failure.Compile(w.Submarine, failure.S1(), 150)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(dataset.DefaultSeed)
	dead := plan.Sample(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = plan.Evaluate(dead)
	}
}

// BenchmarkPlanCompile is the one-time cost a run pays to precompute its
// per-cable probabilities, repeater counts and incidence lists ("compile"),
// and the cost a uniform sweep pays at each point to recompile its arena
// plan for the next probability on the same network and spacing
// ("recompile", on ITU, the largest network, through ten probabilities).
func BenchmarkPlanCompile(b *testing.B) {
	w := benchWorld(b)
	w.Submarine.CableIncidence() // charge the shared topology caches once
	w.ITU.CableIncidence()
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := failure.Compile(w.Submarine, failure.S1(), 150); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompile", func(b *testing.B) {
		var models []failure.Model
		for _, p := range []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1} {
			models = append(models, failure.Uniform{P: p})
		}
		var plan failure.Plan
		for _, m := range models { // warm the arena's arrays and name memo
			if err := failure.CompileInto(&plan, w.ITU, m, 50); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := failure.CompileInto(&plan, w.ITU, models[i%len(models)], 50); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrialLoopConnectivity races the two connectivity engines on one
// steady-state country-analysis trial (sample + us↔Europe verdict) at a
// low-probability sweep point, where the direct path's full cable→edge
// projection dominates. `make bench-check` gates "contracted" at ≥2× over
// "direct" — the speedup the core-contraction subsystem exists to deliver.
func BenchmarkTrialLoopConnectivity(b *testing.B) {
	w := benchWorld(b)
	net := w.Submarine
	plan, err := failure.Compile(net, failure.Uniform{P: 0.001}, 150)
	if err != nil {
		b.Fatal(err)
	}
	from := benchNodeIDs(net.NodesOfCountry("us"))
	var to []graph.NodeID
	for i, nd := range net.Nodes {
		if nd.HasCoord && geo.RegionOf(nd.Coord) == geo.Region("europe") {
			to = append(to, graph.NodeID(i))
		}
	}
	if len(from) == 0 || len(to) == 0 {
		b.Fatal("empty benchmark node sets")
	}
	scratch := net.Graph().NewScratch()
	dead := plan.NewDead()
	root := xrand.New(dataset.DefaultSeed)
	b.Run("direct", func(b *testing.B) {
		var deadEdges graph.Bitset
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := root.SplitAt(uint64(i))
			plan.SampleInto(dead, &rng)
			deadEdges = net.DeadEdgeBitsInto(deadEdges, dead)
			_ = scratch.AnyConnectedBits(deadEdges, from, to)
		}
	})
	b.Run("contracted", func(b *testing.B) {
		cc := plan.Contraction()
		fromS := cc.SupersOf(nil, from)
		toS := cc.SupersOf(nil, to)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := root.SplitAt(uint64(i))
			plan.SampleInto(dead, &rng)
			_ = scratch.AnyConnectedSupers(cc, dead, fromS, toS)
		}
	})
}

// BenchmarkTailEstimate prices the rare-event estimators against plain
// Monte Carlo on the tail event P(>=6 cables dead) at p=1e-4, the deepest
// sweep point where plain MC still observes the event at this budget. Each
// iteration runs 20 independent replicates (seeds DefaultSeed+1000r) of a
// 2048-trial run per estimator and reports the replicate variance of the
// tail estimate as the custom metric "nvar/est" (variance in units of
// 1e-9 — go test's metric printer truncates raw values this small to
// zero) alongside ns/op, so the
// snapshot records both cost and statistical efficiency. `make bench-check`
// gates plain/is-qmc variance at >=10x (the DESIGN.md variance-reduction
// claim); the seeds are fixed, so the metric is deterministic.
func BenchmarkTailEstimate(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	const (
		tailP      = 1e-4
		threshold  = 6
		trials     = 2048
		replicates = 20
	)
	indicator := func(o failure.Outcome) float64 {
		if o.CablesFailed >= threshold {
			return 1
		}
		return 0
	}
	modes := []struct {
		name string
		est  *rare.Estimator
	}{
		{"plain", nil},
		{"is", &rare.Estimator{Target: threshold}},
		{"is-qmc", &rare.Estimator{Target: threshold, QMC: true}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var repvar float64
			for i := 0; i < b.N; i++ {
				var mean, m2 float64
				for r := 0; r < replicates; r++ {
					cfg := sim.Config{
						Model:     failure.Uniform{P: tailP},
						SpacingKm: 100,
						Trials:    trials,
						Seed:      dataset.DefaultSeed + uint64(1000*r),
						Workers:   4,
					}
					if m.est != nil {
						cfg.Estimator = m.est
					}
					res, err := sim.Run(ctx, w.Submarine, cfg)
					if err != nil {
						b.Fatal(err)
					}
					q := res.WeightedMean(indicator)
					d := q - mean
					mean += d / float64(r+1)
					m2 += d * (q - mean)
				}
				repvar = m2 / float64(replicates-1)
			}
			b.ReportMetric(repvar*1e9, "nvar/est")
		})
	}
}

// BenchmarkExtTail is the rare-event tail experiment at the perfbench
// `figures` budget (8,192 trials per point and estimator), cycling seeds
// 2 to 6: plain Monte Carlo and tilted QMC sweeps of seven points each,
// every point with a 200-resample bootstrap interval.
func BenchmarkExtTail(b *testing.B) {
	w := benchWorld(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := experiments.Config{Trials: 8192, Seed: uint64(2 + i%5)}
		if _, err := experiments.ExtTail(ctx, w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchNodeIDs(xs []int) []graph.NodeID {
	out := make([]graph.NodeID, len(xs))
	for i, x := range xs {
		out[i] = graph.NodeID(x)
	}
	return out
}

// BenchmarkPairConnectivity exercises the country-analysis trial loop
// (plan sampling + scratch union-find connectivity) end to end.
func BenchmarkPairConnectivity(b *testing.B) {
	w := benchWorld(b)
	an, err := core.NewAnalyzer(w)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.PairConnectivity(ctx, failure.S1(), 150, 50, 1, "us", "region:europe"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrosslayerCompile measures compiling the cross-layer index of
// the real submarine network and router catalog: the pair-edge CSRs and
// the attachment of every AS to its nearest located cable node, the step
// that runs once per world and network before any trial is scored.
func BenchmarkCrosslayerCompile(b *testing.B) {
	w := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crosslayer.Compile(w.Submarine, w.Routers, routing.DefaultDemands()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrosslayerTrialLoop measures cross-layer scoring — dead cables
// to severed AS pairs and stranded users — of pre-sampled trial blocks on
// the real submarine network and router catalog, in scalar and bitsliced
// 64-trial block form, in two regimes. "scalar"/"batched" run at p=0.001
// and 150 km, the sweep's low-p end: about ten cables die per trial, which
// across a block still touches about 700 pair-edges and 660 component
// labels, so the case measures the per-block forest and the per-trial
// sweep when each trial cuts off only a few small pieces and nearly every
// site stays with the anchor. "s1-scalar"/"s1-batched" run S1 at 150 km,
// the regime of the serving workload's country-impact requests, where
// every trial splits the map into hundreds of components. Every case must
// report 0 allocs/op, and `make bench-check` gates batched at ≥2× over
// scalar.
func BenchmarkCrosslayerTrialLoop(b *testing.B) {
	w := benchWorld(b)
	idx, err := crosslayer.Compile(w.Submarine, w.Routers, routing.DefaultDemands())
	if err != nil {
		b.Fatal(err)
	}
	var s crosslayer.Scratch
	s.Grow(idx)
	scores := make([]crosslayer.Score, failure.MaxBatch)
	for _, c := range []struct {
		prefix string
		model  failure.Model
	}{{"", failure.Uniform{P: 0.001}}, {"s1-", failure.S1()}} {
		plan, err := failure.Compile(w.Submarine, c.model, 150)
		if err != nil {
			b.Fatal(err)
		}
		var batch failure.BatchScratch
		batch.Grow(plan)
		root := xrand.New(dataset.DefaultSeed)
		plan.SampleBatch(&batch, root, 0, failure.MaxBatch)
		b.Run(c.prefix+"scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = idx.ScoreDead(batch.Row(i%failure.MaxBatch), &s)
			}
		})
		b.Run(c.prefix+"batched", func(b *testing.B) {
			b.ReportAllocs()
			for t0 := 0; t0 < b.N; t0 += failure.MaxBatch {
				n := b.N - t0
				if n > failure.MaxBatch {
					n = failure.MaxBatch
				}
				idx.ScoreBatch(&batch, n, scores[:n], &s)
			}
		})
	}
}
