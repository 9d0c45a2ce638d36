package verify

import (
	"context"
	"fmt"
	"math"

	"gicnet/internal/crosslayer"
	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
	"gicnet/internal/failure"
	"gicnet/internal/routing"
	"gicnet/internal/sim"
	"gicnet/internal/xrand"
)

// compileCrosslayer builds the cable->AS index the cross-layer checks run
// against: the submarine map with the full router catalog and the paper's
// demand matrix.
func compileCrosslayer(w *dataset.World) (*crosslayer.Index, error) {
	return crosslayer.Compile(w.Submarine, w.Routers, routing.DefaultDemands())
}

// crossScoreBits compares two scores bit for bit: integers exactly, floats
// via their IEEE-754 representation, so "equal" means byte-identical.
func crossScoreBits(a, b crosslayer.Score) bool {
	if a.ReachablePairs != b.ReachablePairs || a.StrandedASes != b.StrandedASes {
		return false
	}
	if math.Float64bits(a.StrandedShare) != math.Float64bits(b.StrandedShare) ||
		math.Float64bits(a.DemandWeighted) != math.Float64bits(b.DemandWeighted) {
		return false
	}
	for i := range a.RegionStranded {
		if math.Float64bits(a.RegionStranded[i]) != math.Float64bits(b.RegionStranded[i]) {
			return false
		}
	}
	return true
}

// checkCrosslayerMonotone grows a random dead-cable set one batch at a time
// on the real submarine index: reachable AS pairs must never increase and
// stranding must never decrease — cross-layer damage is monotone in
// physical damage.
func checkCrosslayerMonotone(w *dataset.World, seed uint64) Result {
	const name = "crosslayer-monotone"
	const rounds = 24
	idx, err := compileCrosslayer(w)
	if err != nil {
		return fail(name, "compile: %v", err)
	}
	var s crosslayer.Scratch
	s.Grow(idx)
	nc := len(idx.Network().Cables)
	plan, err := failure.Compile(idx.Network(), failure.Uniform{P: 0.5}, 150)
	if err != nil {
		return fail(name, "plan: %v", err)
	}
	dead := plan.NewDead()
	dead.Clear()
	prev := idx.ScoreDead(dead, &s)
	if !crossScoreBits(prev, idx.Intact()) {
		return fail(name, "empty dead set scores %+v, intact is %+v", prev, idx.Intact())
	}
	rng := xrand.New(seed ^ 0xc1055)
	for round := 0; round < rounds; round++ {
		r := rng.SplitAt(uint64(round))
		for k := 0; k < 1+nc/16; k++ {
			dead.Set(r.Intn(nc))
		}
		sc := idx.ScoreDead(dead, &s)
		if sc.ReachablePairs > prev.ReachablePairs {
			return fail(name, "round %d: reachable pairs grew %d -> %d under added failures",
				round, prev.ReachablePairs, sc.ReachablePairs)
		}
		if sc.StrandedASes < prev.StrandedASes {
			return fail(name, "round %d: stranded ASes shrank %d -> %d under added failures",
				round, prev.StrandedASes, sc.StrandedASes)
		}
		if sc.StrandedShare < prev.StrandedShare {
			return fail(name, "round %d: stranded share shrank %v -> %v under added failures",
				round, prev.StrandedShare, sc.StrandedShare)
		}
		prev = sc
	}
	return pass(name, "%d growth rounds on %s (%d ASes): pairs nonincreasing, stranding nondecreasing",
		rounds, idx.Network().Name, idx.TotalASes())
}

// checkCrosslayerStrandedBounds runs the scored engine under every
// invariant model and validates each trial's score structurally: stranded
// users a share in [0,1], stranded ASes within the catalog, pair counts
// within C(total,2).
func checkCrosslayerStrandedBounds(w *dataset.World, seed uint64) Result {
	const name = "crosslayer-stranded-bounds"
	idx, err := compileCrosslayer(w)
	if err != nil {
		return fail(name, "compile: %v", err)
	}
	total := idx.TotalASes()
	maxPairs := total * (total - 1) / 2
	ctx := context.Background()
	trials := 0
	for _, m := range invariantModels() {
		cfg := sim.Config{Model: m, SpacingKm: 150, Trials: 64, Seed: seed, CrossLayer: idx}
		res, err := sim.Run(ctx, idx.Network(), cfg)
		if err != nil {
			return fail(name, "%s: %v", m.Name(), err)
		}
		for i := range res.Cross {
			sc := &res.Cross[i]
			if sc.ReachablePairs < 0 || sc.ReachablePairs > maxPairs {
				return fail(name, "%s trial %d: pairs %d outside [0, %d]", m.Name(), i, sc.ReachablePairs, maxPairs)
			}
			if sc.StrandedASes < 0 || sc.StrandedASes > total {
				return fail(name, "%s trial %d: stranded ASes %d outside [0, %d]", m.Name(), i, sc.StrandedASes, total)
			}
			if sc.StrandedShare < 0 || sc.StrandedShare > 1+1e-12 || math.IsNaN(sc.StrandedShare) {
				return fail(name, "%s trial %d: stranded share %v outside [0, 1]", m.Name(), i, sc.StrandedShare)
			}
			if sc.DemandWeighted < 0 || sc.DemandWeighted > 1+1e-12 || math.IsNaN(sc.DemandWeighted) {
				return fail(name, "%s trial %d: demand-weighted %v outside [0, 1]", m.Name(), i, sc.DemandWeighted)
			}
			trials++
		}
	}
	return pass(name, "%d scored trials across %d models within structural bounds (%d ASes)",
		trials, len(invariantModels()), total)
}

// checkCrosslayerBatchParity proves the bitsliced 64-trial scoring path is
// a pure performance transform: on shared sampled blocks, ScoreBatch must
// reproduce ScoreDead bit for bit, trial by trial.
func checkCrosslayerBatchParity(w *dataset.World, seed uint64) Result {
	const name = "crosslayer-batch-parity"
	const blocks = 4
	idx, err := compileCrosslayer(w)
	if err != nil {
		return fail(name, "compile: %v", err)
	}
	plan, err := failure.Compile(idx.Network(), failure.S1(), 150)
	if err != nil {
		return fail(name, "plan: %v", err)
	}
	var s crosslayer.Scratch
	s.Grow(idx)
	var batch failure.BatchScratch
	batch.Grow(plan)
	var out [failure.MaxBatch]crosslayer.Score
	root := xrand.New(seed ^ 0xba7c4)
	compared := 0
	for blk := 0; blk < blocks; blk++ {
		plan.SampleBatch(&batch, root, uint64(blk)*failure.MaxBatch, failure.MaxBatch)
		idx.ScoreBatch(&batch, failure.MaxBatch, out[:], &s)
		for b := 0; b < failure.MaxBatch; b++ {
			want := idx.ScoreDead(batch.Row(b), &s)
			if !crossScoreBits(out[b], want) {
				return fail(name, "block %d trial %d: batched %+v != scalar %+v", blk, b, out[b], want)
			}
			compared++
		}
	}
	return pass(name, "%d trials: batched scoring bit-identical to scalar on %s", compared, idx.Network().Name)
}

// replayCrosslayer extends the scheduling-independence proof to the
// cross-layer metric: scored runs must be byte-identical across worker
// counts and across repetition, and must carry their own fingerprint
// identity distinct from the plain run.
func replayCrosslayer(ctx context.Context, w *dataset.World, cfg experiments.Config) Result {
	const name = "replay-crosslayer"
	idx, err := compileCrosslayer(w)
	if err != nil {
		return fail(name, "compile: %v", err)
	}
	base := sim.Config{Model: failure.S1(), SpacingKm: 150, Trials: cfg.Trials, Seed: cfg.Seed, CrossLayer: idx}
	want, err := acrossWorkers(true, func(workers int) (uint64, error) {
		c := base
		c.Workers = workers
		res, err := sim.Run(ctx, w.Submarine, c)
		if err != nil {
			return 0, err
		}
		if len(res.Cross) != c.Trials {
			return 0, fmt.Errorf("%d scores for %d trials", len(res.Cross), c.Trials)
		}
		return res.Fingerprint(), nil
	})
	if err != nil {
		return fail(name, "%v", err)
	}
	plain := base
	plain.CrossLayer = nil
	if fp, err := runFingerprint(ctx, w.Submarine, plain); err != nil {
		return fail(name, "plain run: %v", err)
	} else if fp == want {
		return fail(name, "scored run shares the plain fingerprint %016x — cross section not hashed", fp)
	}
	return pass(name, "cross-layer runs byte-identical across workers %v (fingerprint %016x)", ReplayWorkerCounts(), want)
}
