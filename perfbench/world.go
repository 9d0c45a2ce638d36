package main

import (
	"fmt"

	"gicnet"
)

// setupRepeats is how many times a run sets its world up; setup_s is the
// median, because one world generation on the reference host varies by a
// quarter from one try to the next.
const setupRepeats = 5

// buildWorld generates one world and builds the network views every
// analysis reads (graph projection, incidence lists and bitsets), as the
// daemon does when it pins a world. Both steps get a span under op.
func buildWorld(tr *tracer, seed uint64, op int) (*gicnet.World, error) {
	parent := tr.begin("setup", op, -1, false)
	defer tr.end(parent)
	var w *gicnet.World
	if err := tr.layer("dataset.GenerateWorld", op, parent, func() error {
		var err error
		w, err = gicnet.NewWorld(seed)
		return err
	}); err != nil {
		return nil, fmt.Errorf("generate world %d: %w", seed, err)
	}
	err := tr.layer("topology.prewarm", op, parent, func() error {
		for _, n := range w.Networks() {
			if err := n.Validate(); err != nil {
				return err
			}
			n.Graph()
			n.CableIncidence()
			n.IncidenceBits()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("prewarm world %d: %w", seed, err)
	}
	return w, nil
}

// setUpCanonical builds the paper's canonical world setupRepeats times and
// returns the last one with the median set-up time in seconds. Set-up
// spans carry negative operation ids.
func setUpCanonical(tr *tracer) (*gicnet.World, float64, error) {
	var times []float64
	var w *gicnet.World
	for i := 0; i < setupRepeats; i++ {
		sw := startWatch()
		var err error
		if w, err = buildWorld(tr, gicnet.DefaultSeed, -1-i); err != nil {
			return nil, 0, err
		}
		took, _ := sw.elapsed()
		times = append(times, took.Seconds())
	}
	return w, median(times), nil
}
