package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"gicnet/internal/dataset"
	"gicnet/internal/scenario"
)

// An Experiment is one entry of the registry: an analysis of the paper or
// one of its extensions, declared once. cmd/reproduce renders it,
// internal/verify pins its golden projection, and the replay layer re-runs
// it across worker counts when it is Parallel.
type Experiment struct {
	// ID names the experiment on the command line and in the golden.
	ID string
	// Parallel marks experiments that spread their work over
	// Config.Workers; their results must not depend on it.
	Parallel bool
	// Run computes the experiment on a world.
	Run func(ctx context.Context, w *dataset.World, cfg Config) (Output, error)
}

// Output is one computed experiment.
type Output interface {
	// Render writes the tables and series reproduce prints.
	Render(w io.Writer) error
	// Golden is the JSON-encodable projection the golden pins: the
	// numbers Render prints. fig5 and fig9 pin quantiles of their plotted
	// CDFs, and the AS rows systems prints are pinned under fig9.
	Golden() any
}

const (
	serial   = false // ignores Config.Workers
	parallel = true  // spreads its work over Config.Workers
)

// registry lists every experiment in reproduce's output order.
var registry = []Experiment{
	define("fig3", serial, worldOnly(Fig3), (*Fig3Result).Render, asIs[*Fig3Result]),
	define("fig4a", serial, worldOnly(Fig4a),
		fig4Render("Figure 4a: cable endpoints above |latitude| thresholds (%)"), asIs[*Fig4Result]),
	define("fig4b", serial, worldOnly(Fig4b),
		fig4Render("Figure 4b: other infrastructure above |latitude| thresholds (%)"), asIs[*Fig4Result]),
	define("fig5", serial, worldOnly(Fig5), (*Fig5Result).Render, (*Fig5Result).golden),
	define("fig67", parallel, Fig67, (*Fig67Result).Render, asIs[*Fig67Result]),
	define("fig8", parallel, Fig8, (*Fig8Result).Render, asIs[*Fig8Result]),
	define("fig9", serial, worldOnly(Fig9), (*Fig9Result).Render, (*Fig9Result).golden),
	define("country", parallel, func(ctx context.Context, w *dataset.World, cfg Config) (*CountryResult, error) {
		return Countries(ctx, w, cfg, DefaultCountryCases())
	}, (*CountryResult).Render, (*CountryResult).golden),
	define("systems", serial, worldOnly(Systems), (*SystemsResult).Render, (*SystemsResult).golden),
	define("ext-traffic", serial, worldOnly(ExtTraffic), (*ExtTrafficResult).Render, asIs[*ExtTrafficResult]),
	define("ext-recovery", serial, withConfig(ExtRecovery), (*ExtRecoveryResult).Render, (*ExtRecoveryResult).golden),
	define("ext-resilience", serial, withConfig(ExtResilience), (*ExtResilienceResult).Render, (*ExtResilienceResult).golden),
	define("ext-grid", serial, withConfig(ExtGrid), (*ExtGridResult).Render, (*ExtGridResult).golden),
	define("ext-solar", serial, func(context.Context, *dataset.World, Config) (*ExtSolarResult, error) {
		return ExtSolar()
	}, (*ExtSolarResult).Render, asIs[*ExtSolarResult]),
	define("ext-banding", parallel, ExtBanding, (*ExtBandingResult).Render, asIs[*ExtBandingResult]),
	define("ext-scenario", serial, withConfig(ExtScenario), (*scenario.Report).Render, scenarioGolden),
	define("ext-tail", parallel, ExtTail, (*ExtTailResult).Render, asIs[*ExtTailResult]),
	define("crosslayer", parallel, CrossLayer, (*CrossLayerResult).Render, asIs[*CrossLayerResult]),
	define("ext-bridges", serial, withConfig(ExtBridges), (*ExtBridgesResult).Render, asIs[*ExtBridgesResult]),
}

// Registry returns every experiment in reproduce's output order.
func Registry() []Experiment { return append([]Experiment(nil), registry...) }

// IDs returns the registry's experiment IDs in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Select returns the registry entries named in ids, in registry order;
// blank ids are skipped and no ids at all selects every entry. An unknown
// id is an error that names the known ones, so a typo cannot silently
// select nothing.
func Select(ids []string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, id := range ids {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	all := len(want) == 0
	var out []Experiment
	for _, e := range registry {
		if all || want[e.ID] {
			out = append(out, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			//gicnet:allow determinism ids are sorted before use
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown experiment id(s) %s (known: %s)",
			strings.Join(unknown, ","), strings.Join(IDs(), ","))
	}
	return out, nil
}

// define declares one registry entry from a typed run function, its
// renderer and its golden projection.
func define[R any](id string, par bool, run func(context.Context, *dataset.World, Config) (R, error),
	render func(R, io.Writer) error, golden func(R) any) Experiment {
	return Experiment{ID: id, Parallel: par, Run: func(ctx context.Context, w *dataset.World, cfg Config) (Output, error) {
		r, err := run(ctx, w, cfg)
		if err != nil {
			return nil, err
		}
		return output[R]{r, render, golden}, nil
	}}
}

type output[R any] struct {
	result R
	render func(R, io.Writer) error
	golden func(R) any
}

func (o output[R]) Render(w io.Writer) error { return o.render(o.result, w) }
func (o output[R]) Golden() any              { return o.golden(o.result) }

// asIs pins a result that already encodes every number it renders.
func asIs[R any](r R) any { return r }

func worldOnly[R any](f func(*dataset.World) (R, error)) func(context.Context, *dataset.World, Config) (R, error) {
	return func(_ context.Context, w *dataset.World, _ Config) (R, error) { return f(w) }
}

func withConfig[R any](f func(*dataset.World, Config) (R, error)) func(context.Context, *dataset.World, Config) (R, error) {
	return func(_ context.Context, w *dataset.World, cfg Config) (R, error) { return f(w, cfg) }
}

func fig4Render(title string) func(*Fig4Result, io.Writer) error {
	return func(r *Fig4Result, w io.Writer) error { return r.Render(w, title) }
}
