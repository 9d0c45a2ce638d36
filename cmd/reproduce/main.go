// Command reproduce regenerates every table and figure of the paper's
// evaluation from the synthetic world and writes them as text tables and
// series, one section per experiments.Registry entry.
//
// Usage:
//
//	reproduce [-trials N] [-seed S] [-workers W] [-only fig3,fig8,...] [-out FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("reproduce", flag.ExitOnError)
	trials := fs.Int("trials", 10, "Monte Carlo trials per point (paper: 10)")
	seed := fs.Uint64("seed", dataset.DefaultSeed, "simulation seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	only := fs.String("only", "", "comma-separated experiment ids ("+strings.Join(experiments.IDs(), ",")+"); empty = all")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps, err := experiments.Select(strings.Split(*only, ","))
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}

	start := time.Now()
	world, err := dataset.Default()
	if err != nil {
		return err
	}
	log.Printf("world generated in %v", time.Since(start).Round(time.Millisecond))

	cfg := experiments.Config{Trials: *trials, Seed: *seed, Workers: *workers}
	for _, e := range exps {
		t0 := time.Now()
		res, err := e.Run(context.Background(), world, cfg)
		if err == nil {
			err = res.Render(w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		log.Printf("%s done in %v", e.ID, time.Since(t0).Round(time.Millisecond))
		fmt.Fprintln(w)
	}
	log.Printf("all experiments done in %v", time.Since(start).Round(time.Millisecond))
	return nil
}
