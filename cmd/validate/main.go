// Command validate runs the statistical verification subsystem end to end:
// golden-figure regression against the checked-in snapshot, the model
// invariant suite, and the deterministic-replay proof. It exits non-zero
// if any layer fails, so it can gate CI and `make verify`.
//
// Usage:
//
//	validate [-update] [-golden FILE] [-only golden,invariants,replay]
//	         [-trials N] [-seed S] [-workers W] [-rel R] [-abs A] [-max-diffs N]
//
// -update recaptures the snapshot and rewrites the golden file instead of
// checking; commit the diff after reviewing that every changed number is
// explained by the change you made.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
	"gicnet/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("validate: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// layers are the verification layers -only can select.
var layers = []string{"golden", "invariants", "replay"}

func run(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	update := fs.Bool("update", false, "rewrite the golden snapshot instead of checking it")
	goldenPath := fs.String("golden", verify.DefaultGoldenPath, "golden snapshot file")
	only := fs.String("only", "", "comma-separated layers ("+strings.Join(layers, ",")+"); empty = all")
	trials := fs.Int("trials", 10, "Monte Carlo trials per point (must match the golden)")
	seed := fs.Uint64("seed", dataset.DefaultSeed, "simulation seed (must match the golden)")
	workers := fs.Int("workers", 0, "worker budget for the capture run (0 = GOMAXPROCS)")
	rel := fs.Float64("rel", verify.DefaultTolerance().Rel, "relative tolerance for golden numbers")
	abs := fs.Float64("abs", verify.DefaultTolerance().Abs, "absolute tolerance for golden numbers")
	maxDiffs := fs.Int("max-diffs", 25, "mismatches to print before truncating")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	for _, layer := range strings.Split(*only, ",") {
		if layer = strings.TrimSpace(layer); layer != "" {
			if !slices.Contains(layers, layer) {
				return fmt.Errorf("unknown layer %q in -only (known: %s)", layer, strings.Join(layers, ","))
			}
			want[layer] = true
		}
	}
	enabled := func(layer string) bool { return len(want) == 0 || want[layer] }

	ctx := context.Background()
	start := time.Now()
	world, err := dataset.Default()
	if err != nil {
		return err
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, Workers: *workers}
	failed := false

	if *update {
		snap, err := verify.Capture(ctx, world, cfg)
		if err != nil {
			return err
		}
		if err := verify.WriteGolden(*goldenPath, snap); err != nil {
			return err
		}
		log.Printf("golden updated: %s (seed=%d trials=%d) in %v",
			*goldenPath, cfg.Seed, cfg.Trials, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if enabled("golden") {
		t0 := time.Now()
		golden, err := verify.LoadGolden(*goldenPath)
		if err != nil {
			return err
		}
		if golden.Seed != cfg.Seed || golden.Trials != cfg.Trials {
			return fmt.Errorf("golden was captured with seed=%d trials=%d, run requests seed=%d trials=%d",
				golden.Seed, golden.Trials, cfg.Seed, cfg.Trials)
		}
		snap, err := verify.Capture(ctx, world, cfg)
		if err != nil {
			return err
		}
		mismatches, err := verify.DiffSnapshots(snap, golden, verify.Tolerance{Rel: *rel, Abs: *abs})
		if err != nil {
			return err
		}
		if len(mismatches) == 0 {
			log.Printf("PASS golden: snapshot matches %s within rel=%g abs=%g (%v)",
				*goldenPath, *rel, *abs, time.Since(t0).Round(time.Millisecond))
		} else {
			failed = true
			log.Printf("FAIL golden: %d mismatches vs %s", len(mismatches), *goldenPath)
			for i, m := range mismatches {
				if i >= *maxDiffs {
					log.Printf("  ... and %d more (raise -max-diffs to see them)", len(mismatches)-i)
					break
				}
				log.Printf("  %s", m)
			}
			log.Printf("  (if every change above is intended, rerun with -update and commit the new golden)")
		}
	}

	report := func(layer string, results []verify.Result, elapsed time.Duration) {
		bad := verify.Failed(results)
		if len(bad) == 0 {
			log.Printf("PASS %s: %d checks (%v)", layer, len(results), elapsed.Round(time.Millisecond))
		} else {
			failed = true
			log.Printf("FAIL %s: %d of %d checks failed", layer, len(bad), len(results))
		}
		for _, r := range results {
			status := "ok"
			if !r.Passed {
				status = "FAIL"
			}
			log.Printf("  [%s] %s: %s", status, r.Name, r.Detail)
		}
	}

	if enabled("invariants") {
		t0 := time.Now()
		report("invariants", verify.Invariants(world, cfg.Seed), time.Since(t0))
	}
	if enabled("replay") {
		t0 := time.Now()
		report("replay", verify.Replay(ctx, world, cfg), time.Since(t0))
	}

	log.Printf("done in %v", time.Since(start).Round(time.Millisecond))
	if failed {
		return errors.New("FAILED")
	}
	return nil
}
