// Package verify is the statistical verification subsystem: executable
// proof that the reproduction still computes what the paper reports and
// what the engine guarantees. It has three layers:
//
//   - Golden-figure regression (Capture + DiffSnapshots + goldens/): a
//     fixed-seed snapshot of the golden projection of every
//     experiments.Registry entry — the same list cmd/reproduce prints —
//     plus the dataset calibration statistics, diffed against a
//     checked-in golden with explicit tolerances.
//
//   - Model invariants (Invariants): property and metamorphic checks the
//     failure model must satisfy regardless of constants — failure
//     fractions monotone in storm intensity and repeater count,
//     probabilities in [0,1], connectivity never improved by additional
//     failures, union-find/BFS component agreement on random graphs, and
//     metamorphic relations for grid coupling, routing and repair
//     scheduling.
//
//   - Deterministic replay (Replay): proof that sim.Run and every
//     registry experiment that takes a worker budget are byte-identical
//     across worker counts and across repeated runs, which is the
//     contract every parallel refactor of the engine must preserve.
//
// cmd/validate runs all three layers end to end; `make validate` is the
// command-line entry point and `-update` regenerates the goldens.
package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"gicnet/internal/dataset"
	"gicnet/internal/experiments"
)

// SchemaVersion identifies the snapshot layout; bump it when fields change
// meaning so stale goldens fail loudly instead of diffing nonsense.
const SchemaVersion = 1

// Snapshot is the complete golden-regression surface: the capture
// configuration, the dataset calibration statistics, and the golden
// projection of every experiments.Registry entry. It encodes as one flat
// JSON object: the Meta keys, then one key per experiment ID.
type Snapshot struct {
	Meta
	// Experiments holds each experiment's JSON-encoded golden projection,
	// in registry order.
	Experiments []Section
}

// Meta is the fixed part of a snapshot.
type Meta struct {
	Schema int    `json:"schema"`
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	// Calibration holds the dataset statistics the generator is tuned to
	// (median 775 km, p99 28000 km, 82-of-441 repeaterless cables).
	Calibration *dataset.Calibration `json:"calibration"`
}

// Section is one experiment's golden projection.
type Section struct {
	ID    string
	Value json.RawMessage
}

// MarshalJSON writes the Meta keys followed by one key per section.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	b, err := json.Marshal(s.Meta)
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1] // reopen the object for the sections
	for _, sec := range s.Experiments {
		key, err := json.Marshal(sec.ID)
		if err != nil {
			return nil, err
		}
		b = append(append(append(append(b, ','), key...), ':'), sec.Value...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads the Meta keys and keeps every other key as a
// section, in file order.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	*s = Snapshot{}
	if err := json.Unmarshal(b, &s.Meta); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil {
		return err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return err
		}
		switch key {
		case "schema", "seed", "trials", "calibration":
		default:
			s.Experiments = append(s.Experiments, Section{ID: key.(string), Value: raw})
		}
	}
	return nil
}

// Capture runs every registry experiment against the world and collects
// their golden projections into a snapshot. With a fixed cfg.Seed the
// output is deterministic whatever cfg.Workers is — that is exactly what
// the Replay layer proves.
func Capture(ctx context.Context, w *dataset.World, cfg experiments.Config) (*Snapshot, error) {
	cal, err := dataset.CalibrationStats(w)
	if err != nil {
		return nil, fmt.Errorf("verify: calibration: %w", err)
	}
	s := &Snapshot{Meta: Meta{Schema: SchemaVersion, Seed: cfg.Seed, Trials: cfg.Trials, Calibration: cal}}
	for _, e := range experiments.Registry() {
		out, err := e.Run(ctx, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("verify: %s: %w", e.ID, err)
		}
		raw, err := json.Marshal(out.Golden())
		if err != nil {
			return nil, fmt.Errorf("verify: %s golden: %w", e.ID, err)
		}
		s.Experiments = append(s.Experiments, Section{ID: e.ID, Value: raw})
	}
	return s, nil
}
