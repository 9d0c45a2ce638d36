package verify

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"

	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
	"gicnet/internal/failure"
	"gicnet/internal/rare"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
)

// ReplayWorkerCounts are the worker counts the replay proof covers: the
// serial baseline, a fixed small pool, and whatever this machine's
// GOMAXPROCS-scale pool is. Duplicates are collapsed.
func ReplayWorkerCounts() []int {
	counts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Replay proves the engine's scheduling-independence contract: sim.Run and
// every registry experiment that takes a worker budget produce
// byte-identical results for every worker count and across repeated runs.
// Each check reports the fingerprints it compared, so a pass documents the
// evidence and a failure names the worker count that diverged.
func Replay(ctx context.Context, w *dataset.World, cfg experiments.Config) []Result {
	return []Result{
		replayRun(ctx, w, cfg),
		replaySweep(ctx, w, cfg),
		replayRegistry(ctx, w, cfg),
		replayPinned(ctx, w),
		replayEstimator(ctx, w, cfg),
		replayServed(ctx, w),
		replayCrosslayer(ctx, w, cfg),
	}
}

// Pinned fingerprints of the plain Monte Carlo engine, captured before the
// rare-event estimator layer existed. The default path must keep producing
// these bytes forever: any drift means the estimator seam leaked into the
// nil-estimator trial loop. Both pins use the canonical seed at the
// paper's 10-trial budget, serial.
const (
	pinnedRunFingerprint   uint64 = 0xcff318a754b39723 // sim.Run, Submarine, S1, 150km
	pinnedSweepFingerprint uint64 = 0x6ce067845eb876da // SweepUniform, Intertubes, Uniform, 100km
)

// replayPinned replays the two pinned configurations and compares against
// the historical constants.
func replayPinned(ctx context.Context, w *dataset.World) Result {
	const name = "replay-pinned-plain"
	fp, err := runFingerprint(ctx, w.Submarine, sim.Config{Model: failure.S1(), SpacingKm: 150, Trials: 10, Seed: dataset.DefaultSeed, Workers: 1})
	if err != nil {
		return fail(name, "pinned run: %v", err)
	}
	if fp != pinnedRunFingerprint {
		return fail(name, "pinned sim.Run fingerprint %016x != historical %016x — plain path no longer bit-identical", fp, pinnedRunFingerprint)
	}
	fp, err = sweepFingerprint(ctx, w, sim.Config{Model: failure.Uniform{}, SpacingKm: 100, Trials: 10, Seed: dataset.DefaultSeed, Workers: 1})
	if err != nil {
		return fail(name, "pinned sweep: %v", err)
	}
	if fp != pinnedSweepFingerprint {
		return fail(name, "pinned sweep fingerprint %016x != historical %016x — plain path no longer bit-identical", fp, pinnedSweepFingerprint)
	}
	return pass(name, "plain engine still bit-identical to pre-estimator pins (%016x, %016x)",
		pinnedRunFingerprint, pinnedSweepFingerprint)
}

// acrossWorkers evaluates fp once per replay worker count and returns the
// serial fingerprint, or an error naming the first worker count that
// diverged from it. With repeat the serial run is done twice, proving
// same-seed reproducibility as well.
func acrossWorkers(repeat bool, fp func(workers int) (uint64, error)) (uint64, error) {
	var want uint64
	for i, workers := range ReplayWorkerCounts() {
		got, err := fp(workers)
		if err != nil {
			return 0, fmt.Errorf("workers=%d: %w", workers, err)
		}
		switch {
		case i > 0 && got != want:
			return 0, fmt.Errorf("workers=%d fingerprint %016x != serial %016x", workers, got, want)
		case i == 0 && repeat:
			again, err := fp(workers)
			if err != nil {
				return 0, fmt.Errorf("repeat run: %w", err)
			}
			if again != got {
				return 0, fmt.Errorf("repeated serial run diverged: %016x vs %016x", again, got)
			}
		}
		want = got
	}
	return want, nil
}

// runFingerprint is the fingerprint of one sim.Run.
func runFingerprint(ctx context.Context, net *topology.Network, c sim.Config) (uint64, error) {
	res, err := sim.Run(ctx, net, c)
	if err != nil {
		return 0, err
	}
	return res.Fingerprint(), nil
}

// replayEstimator extends the scheduling-independence proof to the
// rare-event estimators: tilted and quasi-random trial loops must also be
// byte-identical across worker counts and across repetition.
func replayEstimator(ctx context.Context, w *dataset.World, cfg experiments.Config) Result {
	const name = "replay-estimator"
	for _, est := range []*rare.Estimator{rare.NewIS(0), rare.NewISQMC(0)} {
		_, err := acrossWorkers(true, func(workers int) (uint64, error) {
			return runFingerprint(ctx, w.Submarine, sim.Config{Model: failure.Uniform{P: 1e-5}, SpacingKm: 100,
				Trials: cfg.Trials, Seed: cfg.Seed, Estimator: est, Workers: workers})
		})
		if err != nil {
			return fail(name, "%s %v", est.EstimatorName(), err)
		}
	}
	return pass(name, "is and is-qmc runs byte-identical across workers %v", ReplayWorkerCounts())
}

// replayRun checks sim.Run across worker counts and across repetition.
func replayRun(ctx context.Context, w *dataset.World, cfg experiments.Config) Result {
	const name = "replay-sim-run"
	want, err := acrossWorkers(true, func(workers int) (uint64, error) {
		return runFingerprint(ctx, w.Submarine, sim.Config{Model: failure.S1(), SpacingKm: 150,
			Trials: cfg.Trials, Seed: cfg.Seed, Workers: workers})
	})
	if err != nil {
		return fail(name, "%v", err)
	}
	return pass(name, "sim.Run byte-identical across workers %v (fingerprint %016x)", ReplayWorkerCounts(), want)
}

// sweepFingerprint hashes the point fingerprints of one SweepUniform.
func sweepFingerprint(ctx context.Context, w *dataset.World, c sim.Config) (uint64, error) {
	pts, err := sim.SweepUniform(ctx, w.Intertubes, c, sim.DefaultProbabilities())
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, pt := range pts {
		fmt.Fprintf(h, "%g:%016x|", pt.P, pt.Result.Fingerprint())
	}
	return h.Sum64(), nil
}

// replaySweep checks SweepUniform across worker counts.
func replaySweep(ctx context.Context, w *dataset.World, cfg experiments.Config) Result {
	const name = "replay-sweep-uniform"
	want, err := acrossWorkers(false, func(workers int) (uint64, error) {
		return sweepFingerprint(ctx, w, sim.Config{Model: failure.Uniform{}, SpacingKm: 100,
			Trials: cfg.Trials, Seed: cfg.Seed, Workers: workers})
	})
	if err != nil {
		return fail(name, "%v", err)
	}
	return pass(name, "%d-point sweep byte-identical across workers %v (fingerprint %016x)",
		len(sim.DefaultProbabilities()), ReplayWorkerCounts(), want)
}

// jsonFingerprint hashes any JSON-encodable value; the encoding is
// deterministic (sorted map keys), so equal fingerprints mean equal values.
func jsonFingerprint(v any) (uint64, error) {
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// replayRegistry re-runs every registry experiment that takes a worker
// budget at each replay worker count: its golden projection must
// fingerprint identically every time.
func replayRegistry(ctx context.Context, w *dataset.World, cfg experiments.Config) Result {
	const name = "replay-registry"
	var pins []string
	for _, e := range experiments.Registry() {
		if !e.Parallel {
			continue
		}
		want, err := acrossWorkers(false, func(workers int) (uint64, error) {
			c := cfg
			c.Workers = workers
			out, err := e.Run(ctx, w, c)
			if err != nil {
				return 0, err
			}
			return jsonFingerprint(out.Golden())
		})
		if err != nil {
			return fail(name, "%s %v", e.ID, err)
		}
		pins = append(pins, fmt.Sprintf("%s=%016x", e.ID, want))
	}
	return pass(name, "%d experiments byte-identical across workers %v (%s)",
		len(pins), ReplayWorkerCounts(), strings.Join(pins, ", "))
}
