// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic world: Figures 3-9 plus the §4.3.4
// country-scale connectivity analysis and the §4.4 systems summary. Each
// experiment returns structured data and can render the same rows/series
// the paper plots.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"

	"gicnet/internal/asn"
	"gicnet/internal/core"
	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/geo"
	"gicnet/internal/infra"
	"gicnet/internal/population"
	"gicnet/internal/report"
	"gicnet/internal/sim"
	"gicnet/internal/stats"
	"gicnet/internal/topology"
)

// Config carries the common experiment parameters.
type Config struct {
	// Trials per Monte Carlo point (the paper uses 10).
	Trials int
	// Seed drives every simulation.
	Seed uint64
	// Workers caps simulation parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig mirrors the paper: 10 trials per point.
func DefaultConfig() Config { return Config{Trials: 10, Seed: dataset.DefaultSeed} }

// ---------------------------------------------------------------------
// Figure 3: PDF of population and submarine endpoints vs latitude.
// ---------------------------------------------------------------------

// Fig3Result holds the two latitude PDFs over 2-degree bins.
type Fig3Result struct {
	BinCenters []float64
	PopPDF     []float64 // percent per bin
	SubPDF     []float64 // percent per bin
}

// Fig3 computes the latitude PDFs.
func Fig3(w *dataset.World) (*Fig3Result, error) {
	h, err := stats.NewHistogram(-90, 90, 90)
	if err != nil {
		return nil, err
	}
	for _, c := range w.Submarine.EndpointCoords() {
		h.Add(c.Lat)
	}
	pop := w.Population
	if pop == nil {
		pop, err = population.New(2)
		if err != nil {
			return nil, err
		}
	}
	return &Fig3Result{
		BinCenters: h.BinCenters(),
		PopPDF:     pop.PDF(),
		SubPDF:     h.PDF(),
	}, nil
}

// Render writes the two series.
func (r *Fig3Result) Render(w io.Writer) error {
	return report.RenderSeries(w, "Figure 3: latitude PDFs (2-degree bins)", "latitude",
		&report.Series{Name: "population%", X: r.BinCenters, Y: r.PopPDF},
		&report.Series{Name: "submarine%", X: r.BinCenters, Y: r.SubPDF},
	)
}

// ---------------------------------------------------------------------
// Figure 4: percentage of elements above |latitude| thresholds.
// ---------------------------------------------------------------------

// Fig4Result holds threshold curves for several element classes.
type Fig4Result struct {
	Thresholds []float64
	Curves     map[string][]float64
	Order      []string
}

// Fig4a: long-distance cable endpoints vs population.
func Fig4a(w *dataset.World) (*Fig4Result, error) {
	th := geo.DefaultThresholds()
	sub := geo.ThresholdCurve(w.Submarine.EndpointCoords(), th)
	oneHop := make([]float64, len(th))
	n := float64(len(w.Submarine.EndpointCoords()))
	for i, t := range th {
		oneHop[i] = float64(len(w.Submarine.OneHopEndpointCoords(t))) / n
	}
	tubes := geo.ThresholdCurve(w.Intertubes.EndpointCoords(), th)
	pop := w.Population.ThresholdCurve(th)
	return &Fig4Result{
		Thresholds: th,
		Curves: map[string][]float64{
			"submarine":  sub,
			"one-hop":    oneHop,
			"intertubes": tubes,
			"population": pop,
		},
		Order: []string{"submarine", "one-hop", "intertubes", "population"},
	}, nil
}

// Fig4b: routers, IXPs, DNS roots vs population.
func Fig4b(w *dataset.World) (*Fig4Result, error) {
	th := geo.DefaultThresholds()
	return &Fig4Result{
		Thresholds: th,
		Curves: map[string][]float64{
			"routers":    geo.ThresholdCurve(w.Routers.RouterCoords(), th),
			"ixps":       geo.ThresholdCurve(dataset.SiteCoords(w.IXPs), th),
			"dns-roots":  geo.ThresholdCurve(dataset.DNSInstanceCoords(w.DNSRoots), th),
			"population": w.Population.ThresholdCurve(th),
		},
		Order: []string{"routers", "ixps", "dns-roots", "population"},
	}, nil
}

// Render writes the curves as aligned columns.
func (r *Fig4Result) Render(w io.Writer, title string) error {
	series := make([]*report.Series, 0, len(r.Order))
	for _, name := range r.Order {
		series = append(series, &report.Series{Name: name, X: r.Thresholds, Y: pct(r.Curves[name])})
	}
	return report.RenderSeries(w, title, "|lat|>=", series...)
}

func pct(fracs []float64) []float64 {
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = 100 * f
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 5: CDF of cable lengths per network.
// ---------------------------------------------------------------------

// Fig5Result holds one length CDF per network.
type Fig5Result struct {
	CDFs map[string]*stats.CDF
	// Medians per network, for the summary table.
	Medians map[string]float64
}

// Fig5 computes the cable length CDFs.
func Fig5(w *dataset.World) (*Fig5Result, error) {
	r := &Fig5Result{CDFs: map[string]*stats.CDF{}, Medians: map[string]float64{}}
	for _, net := range w.Networks() {
		cdf, err := stats.NewCDF(net.CableLengths())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s lengths: %w", net.Name, err)
		}
		r.CDFs[net.Name] = cdf
		r.Medians[net.Name] = cdf.Quantile(0.5)
	}
	return r, nil
}

// lengthQuantiles are the golden quantiles of one cable-length CDF: the
// numbers the paper reports, and ones a human can read in a golden diff.
type lengthQuantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// golden pins each network's length quantiles rather than the full CDF.
func (r *Fig5Result) golden() any {
	out := map[string]lengthQuantiles{}
	for name, cdf := range r.CDFs {
		out[name] = lengthQuantiles{P50: cdf.Quantile(0.5), P90: cdf.Quantile(0.9), P99: cdf.Quantile(0.99), Max: cdf.Quantile(1)}
	}
	return out
}

// Render writes each CDF as sampled points.
func (r *Fig5Result) Render(w io.Writer) error {
	names := make([]string, 0, len(r.CDFs))
	for name := range r.CDFs {
		//gicnet:allow determinism names are sorted before rendering
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pts := r.CDFs[name].Points(24)
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		if err := report.RenderSeries(w, fmt.Sprintf("Figure 5: %s cable length CDF", name), "length-km",
			&report.Series{Name: "cdf", X: xs, Y: ys}); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Figures 6 and 7: uniform repeater failure sweeps.
// ---------------------------------------------------------------------

// SweepCell is one (network, spacing) sweep: mean and stddev of cable and
// node failure percentages per probability.
type SweepCell struct {
	Network   string
	SpacingKm float64
	Probs     []float64
	CableMean []float64
	CableStd  []float64
	NodeMean  []float64
	NodeStd   []float64
}

// Fig67Result holds all sweep cells: 3 networks x 3 spacings. The same
// runs feed Figure 6 (cables) and Figure 7 (nodes), exactly as in the
// paper.
type Fig67Result struct {
	Cells []SweepCell
}

// Fig67 runs the uniform-probability sweeps. The network×spacing cells are
// independent (each has its own derived seed), so they fan out across the
// cfg.Workers budget; any leftover budget parallelises the sweep points
// within a cell. Cell order and results are identical to the serial loop.
func Fig67(ctx context.Context, w *dataset.World, cfg Config) (*Fig67Result, error) {
	probs := sim.DefaultProbabilities()
	type cellSpec struct {
		spacing float64
		net     *topology.Network
	}
	var specs []cellSpec
	for _, spacing := range sim.DefaultSpacings() {
		for _, net := range w.Networks() {
			specs = append(specs, cellSpec{spacing, net})
		}
	}
	cells := make([]SweepCell, len(specs))
	cellWorkers, inner := splitBudget(cfg.Workers, len(specs))
	// One arena per cell worker: plan storage, dead bitsets, and outcome
	// buffers are recycled across the worker's cells and sweep points.
	arenas := make([]*sim.Arena, cellWorkers)
	err := sim.ForEachWorker(ctx, len(specs), cellWorkers, func(worker, i int) error {
		a := arenas[worker]
		if a == nil {
			a = sim.NewArena()
			arenas[worker] = a
		}
		spec := specs[i]
		simCfg := sim.Config{
			SpacingKm: spec.spacing,
			Trials:    cfg.Trials,
			Seed:      cfg.Seed ^ uint64(spec.spacing),
			Workers:   inner,
			Model:     failure.Uniform{P: 0},
		}
		pts, err := sim.SweepUniformArena(ctx, spec.net, simCfg, probs, a)
		if err != nil {
			return err
		}
		cell := SweepCell{
			Network: spec.net.Name, SpacingKm: spec.spacing, Probs: probs,
			CableMean: make([]float64, len(pts)), CableStd: make([]float64, len(pts)),
			NodeMean: make([]float64, len(pts)), NodeStd: make([]float64, len(pts)),
		}
		for k, p := range pts {
			cell.CableMean[k] = 100 * p.Result.CableFrac.Mean()
			cell.CableStd[k] = 100 * p.Result.CableFrac.StdDev()
			cell.NodeMean[k] = 100 * p.Result.NodeFrac.Mean()
			cell.NodeStd[k] = 100 * p.Result.NodeFrac.StdDev()
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig67Result{Cells: cells}, nil
}

// splitBudget divides a worker budget (0 = GOMAXPROCS) between an outer
// grid of n independent tasks and the inner parallelism each task may use,
// keeping the total roughly at the budget.
func splitBudget(workers, n int) (outer, inner int) {
	budget := workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	outer = budget
	if outer > n {
		outer = n
	}
	inner = 1
	if outer > 0 && budget/outer > 1 {
		inner = budget / outer
	}
	return outer, inner
}

// Cell returns the sweep for a network and spacing, or nil.
func (r *Fig67Result) Cell(network string, spacingKm float64) *SweepCell {
	for i := range r.Cells {
		//gicnet:allow floatcmp cells are keyed by the exact spacing literals they were built with
		if r.Cells[i].Network == network && r.Cells[i].SpacingKm == spacingKm {
			return &r.Cells[i]
		}
	}
	return nil
}

// Render writes one block per spacing with cable (Fig 6) and node (Fig 7)
// series for each network.
func (r *Fig67Result) Render(w io.Writer) error {
	for _, spacing := range sim.DefaultSpacings() {
		var cables, nodes []*report.Series
		for _, cell := range r.Cells {
			//gicnet:allow floatcmp cells are keyed by the exact spacing literals they were built with
			if cell.SpacingKm != spacing {
				continue
			}
			cables = append(cables, &report.Series{Name: cell.Network, X: cell.Probs, Y: cell.CableMean, Err: cell.CableStd})
			nodes = append(nodes, &report.Series{Name: cell.Network, X: cell.Probs, Y: cell.NodeMean, Err: cell.NodeStd})
		}
		if err := report.RenderSeries(w, fmt.Sprintf("Figure 6: cables failed %% (spacing %.0f km)", spacing), "p(repeater)", cables...); err != nil {
			return err
		}
		if err := report.RenderSeries(w, fmt.Sprintf("Figure 7: nodes unreachable %% (spacing %.0f km)", spacing), "p(repeater)", nodes...); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Figure 8: non-uniform latitude-tiered failures (S1/S2).
// ---------------------------------------------------------------------

// Fig8Row is one bar group of Figure 8.
type Fig8Row struct {
	State     string // "S1" or "S2"
	SpacingKm float64
	Network   string
	CablePct  float64
	CableStd  float64
	NodePct   float64
	NodeStd   float64
}

// Fig8Result holds every bar of Figure 8.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 runs the S1/S2 analysis on the submarine and Intertubes networks
// (the ITU network lacks coordinates, as in the paper). The twelve
// state×spacing×network runs are independently seeded, so they fan out
// across the cfg.Workers budget; row order matches the serial loop.
func Fig8(ctx context.Context, w *dataset.World, cfg Config) (*Fig8Result, error) {
	models := []failure.LatitudeTiered{failure.S1(), failure.S2()}
	states := []string{"S1", "S2"}
	nets := []*topology.Network{w.Submarine, w.Intertubes}
	type runSpec struct {
		mi      int
		spacing float64
		net     *topology.Network
	}
	var specs []runSpec
	for mi := range models {
		for _, spacing := range sim.DefaultSpacings() {
			for _, net := range nets {
				specs = append(specs, runSpec{mi, spacing, net})
			}
		}
	}
	rows := make([]Fig8Row, len(specs))
	outer, inner := splitBudget(cfg.Workers, len(specs))
	// Per-worker arenas: each run reuses its worker's compiled-plan and
	// result storage; rows only keep the scalar summaries.
	arenas := make([]*sim.Arena, outer)
	err := sim.ForEachWorker(ctx, len(specs), outer, func(worker, i int) error {
		a := arenas[worker]
		if a == nil {
			a = sim.NewArena()
			arenas[worker] = a
		}
		spec := specs[i]
		res, err := a.RunModel(ctx, spec.net, sim.Config{
			Model:     models[spec.mi],
			SpacingKm: spec.spacing,
			Trials:    cfg.Trials,
			Seed:      cfg.Seed ^ (uint64(spec.mi+1) << 32) ^ uint64(spec.spacing),
			Workers:   inner,
		})
		if err != nil {
			return err
		}
		rows[i] = Fig8Row{
			State:     states[spec.mi],
			SpacingKm: spec.spacing,
			Network:   spec.net.Name,
			CablePct:  100 * res.CableFrac.Mean(),
			CableStd:  100 * res.CableFrac.StdDev(),
			NodePct:   100 * res.NodeFrac.Mean(),
			NodeStd:   100 * res.NodeFrac.StdDev(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Rows: rows}, nil
}

// Row returns the row for (state, spacing, network), or nil.
func (r *Fig8Result) Row(state string, spacingKm float64, network string) *Fig8Row {
	for i := range r.Rows {
		row := &r.Rows[i]
		//gicnet:allow floatcmp rows are keyed by the exact spacing literals they were built with
		if row.State == state && row.SpacingKm == spacingKm && row.Network == network {
			return row
		}
	}
	return nil
}

// Render writes the Figure 8 table.
func (r *Fig8Result) Render(w io.Writer) error {
	t := report.NewTable("Figure 8: non-uniform repeater failures (S1 high / S2 low)",
		"state", "spacing", "network", "cables-failed%", "sd", "nodes-unreachable%", "sd")
	for _, row := range r.Rows {
		t.AddRow(row.State,
			fmt.Sprintf("%.0f km", row.SpacingKm),
			row.Network,
			fmt.Sprintf("%.1f", row.CablePct),
			fmt.Sprintf("%.1f", row.CableStd),
			fmt.Sprintf("%.1f", row.NodePct),
			fmt.Sprintf("%.1f", row.NodeStd),
		)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// Figure 9: AS reach and spread.
// ---------------------------------------------------------------------

// Fig9Result wraps the AS summary.
type Fig9Result struct {
	Summary *asn.Summary
}

// Fig9 computes the AS analysis.
func Fig9(w *dataset.World) (*Fig9Result, error) {
	s, err := asn.Analyze(w.Routers)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Summary: s}, nil
}

// fig9Golden is the golden projection of the AS summary.
type fig9Golden struct {
	Thresholds      []float64 `json:"thresholds"`
	ReachFrac       []float64 `json:"reach_frac"`
	ReachAbove40    float64   `json:"reach_above_40"`
	MedianSpreadDeg float64   `json:"median_spread_deg"`
	P90SpreadDeg    float64   `json:"p90_spread_deg"`
	DirectASes      int       `json:"direct_ases"`
	IndirectASes    int       `json:"indirect_ases"`
	LowASes         int       `json:"low_ases"`
}

func (r *Fig9Result) golden() any {
	s := r.Summary
	return fig9Golden{
		Thresholds: s.Thresholds, ReachFrac: s.ReachFrac, ReachAbove40: s.ReachAbove40,
		MedianSpreadDeg: s.MedianSpreadDeg, P90SpreadDeg: s.P90SpreadDeg,
		DirectASes:   s.ByExposure[asn.ExposureDirect],
		IndirectASes: s.ByExposure[asn.ExposureIndirect],
		LowASes:      s.ByExposure[asn.ExposureLow],
	}
}

// Render writes the 9a curve and 9b CDF sample.
func (r *Fig9Result) Render(w io.Writer) error {
	if err := report.RenderSeries(w, "Figure 9a: ASes with presence above threshold", "|lat|>=",
		&report.Series{Name: "as%", X: r.Summary.Thresholds, Y: pct(r.Summary.ReachFrac)}); err != nil {
		return err
	}
	pts := r.Summary.SpreadPoints(24)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return report.RenderSeries(w, "Figure 9b: CDF of AS latitude spread (degrees)", "spread-deg",
		&report.Series{Name: "cdf", X: xs, Y: ys})
}

// ---------------------------------------------------------------------
// §4.3.4: country-scale connectivity.
// ---------------------------------------------------------------------

// CountryCase defines one row of the country analysis.
type CountryCase = core.CountryCase

// DefaultCountryCases mirrors the paper's §4.3.4 walkthrough.
func DefaultCountryCases() []CountryCase {
	return []CountryCase{
		{Target: "us", Partners: []core.Target{"region:europe", "region:asia", "br"}},
		{Target: "cn", Partners: []core.Target{"sg", "jp", "us"}},
		{Target: "in", Partners: []core.Target{"sg", "region:europe"}},
		{Target: "sg", Partners: []core.Target{"in", "au", "id"}},
		{Target: "gb", Partners: []core.Target{"region:europe", "us"}},
		{Target: "za", Partners: []core.Target{"region:europe", "ke"}},
		{Target: "au", Partners: []core.Target{"nz", "sg", "us"}},
		{Target: "nz", Partners: []core.Target{"au", "us"}},
		{Target: "br", Partners: []core.Target{"region:europe", "us"}},
	}
}

// CountryResult holds one report per (state, case).
type CountryResult struct {
	Reports map[string][]*core.CountryReport // "S1"/"S2" -> per case
}

// Countries runs the country analysis under S1 and S2 at 150 km spacing.
// Every distinct target is resolved once, each state compiles one plan,
// and all partner pairs of a state are answered from one draw of
// cfg.Trials*10 trials (core.CountryCases.Reports). The two states fan out
// over the cfg.Workers budget and the rest of the budget splits each
// state's trial blocks; every trial derives its RNG from cfg.Seed alone,
// so the reports (and the golden snapshot) do not depend on the budget.
func Countries(ctx context.Context, w *dataset.World, cfg Config, cases []CountryCase) (*CountryResult, error) {
	an, err := core.NewAnalyzer(w)
	if err != nil {
		return nil, err
	}
	cs, err := an.ResolveCountryCases(cases)
	if err != nil {
		return nil, err
	}
	states := []struct {
		name  string
		model failure.Model
	}{{"S1", failure.S1()}, {"S2", failure.S2()}}
	reports := make([][]*core.CountryReport, len(states))
	outer, inner := splitBudget(cfg.Workers, len(states))
	err = sim.ForEach(ctx, len(states), outer, func(i int) error {
		plan, err := failure.Compile(w.Submarine, states[i].model, 150)
		if err != nil {
			return err
		}
		reports[i], err = cs.Reports(ctx, plan, cfg.Trials*10, cfg.Seed, inner)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &CountryResult{Reports: map[string][]*core.CountryReport{}}
	for i, s := range states {
		out.Reports[s.name] = reports[i]
	}
	return out, nil
}

type partnerGolden struct {
	To           string  `json:"to"`
	SurvivalProb float64 `json:"survival_prob"`
	Trials       int     `json:"trials"`
}

type countryGolden struct {
	Target            string          `json:"target"`
	Cables            int             `json:"cables"`
	ExpectedSurvivors float64         `json:"expected_survivors"`
	IsolationProb     float64         `json:"isolation_prob"`
	Partners          []partnerGolden `json:"partners"`
}

// golden pins every row of both state tables.
func (r *CountryResult) golden() any {
	out := map[string][]countryGolden{}
	for state, reports := range r.Reports {
		rows := make([]countryGolden, len(reports))
		for i, rep := range reports {
			rows[i] = countryGolden{Target: string(rep.Target), Cables: len(rep.Cables),
				ExpectedSurvivors: rep.ExpectedSurvivors, IsolationProb: rep.IsolationProb}
			for _, p := range rep.Partners {
				rows[i].Partners = append(rows[i].Partners,
					partnerGolden{To: string(p.To), SurvivalProb: p.SurvivalProb, Trials: p.Trials})
			}
		}
		out[state] = rows
	}
	return out
}

// Render writes one table per state.
func (r *CountryResult) Render(w io.Writer) error {
	for _, state := range []string{"S1", "S2"} {
		t := report.NewTable(fmt.Sprintf("Country connectivity under %s (150 km spacing)", state),
			"target", "cables", "expected-survivors", "isolation-p", "partner", "p(connected)")
		for _, rep := range r.Reports[state] {
			first := true
			if len(rep.Partners) == 0 {
				t.AddRow(string(rep.Target), fmt.Sprint(len(rep.Cables)),
					fmt.Sprintf("%.1f", rep.ExpectedSurvivors),
					fmt.Sprintf("%.3f", rep.IsolationProb), "", "")
				continue
			}
			for _, p := range rep.Partners {
				if first {
					t.AddRow(string(rep.Target), fmt.Sprint(len(rep.Cables)),
						fmt.Sprintf("%.1f", rep.ExpectedSurvivors),
						fmt.Sprintf("%.3f", rep.IsolationProb),
						string(p.To), fmt.Sprintf("%.2f", p.SurvivalProb))
					first = false
				} else {
					t.AddRow("", "", "", "", string(p.To), fmt.Sprintf("%.2f", p.SurvivalProb))
				}
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// §4.4: systems resilience summary.
// ---------------------------------------------------------------------

// SystemsResult bundles the infra report and the AS summary.
type SystemsResult struct {
	Infra *infra.Report
	ASes  *asn.Summary
}

// Systems runs the §4.4 analyses.
func Systems(w *dataset.World) (*SystemsResult, error) {
	ir, err := infra.BuildReport(w)
	if err != nil {
		return nil, err
	}
	as, err := asn.Analyze(w.Routers)
	if err != nil {
		return nil, err
	}
	return &SystemsResult{Infra: ir, ASes: as}, nil
}

// systems lists the distributions in table order.
func (r *SystemsResult) systems() []*infra.Distribution {
	return []*infra.Distribution{r.Infra.DNS, r.Infra.Google, r.Infra.Facebook, r.Infra.IXPs, r.Infra.Routers}
}

type systemGolden struct {
	Name          string  `json:"name"`
	Count         int     `json:"count"`
	FracAbove40   float64 `json:"frac_above_40"`
	SouthernShare float64 `json:"southern_share"`
	Regions       int     `json:"regions"`
	Resilience    float64 `json:"resilience"`
}

// golden pins the systems table; the AS exposure rows are fig9's.
func (r *SystemsResult) golden() any {
	var out []systemGolden
	for _, d := range r.systems() {
		out = append(out, systemGolden{Name: d.Name, Count: d.Count, FracAbove40: d.FracAbove40,
			SouthernShare: d.SouthernShare, Regions: len(d.Regions), Resilience: d.ResilienceScore()})
	}
	return out
}

// Render writes the systems table.
func (r *SystemsResult) Render(w io.Writer) error {
	t := report.NewTable("Systems resilience (§4.4)",
		"system", "sites", "above-40", "southern-share", "regions", "resilience")
	for _, d := range r.systems() {
		t.AddRow(d.Name, fmt.Sprint(d.Count), report.Pct(d.FracAbove40),
			report.Pct(d.SouthernShare), fmt.Sprint(len(d.Regions)),
			fmt.Sprintf("%.2f", d.ResilienceScore()))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	at := report.NewTable("AS exposure summary (§4.4.1)",
		"metric", "value")
	at.AddRow("ASes with presence above 40", report.Pct(r.ASes.ReachAbove40))
	at.AddRow("median latitude spread", fmt.Sprintf("%.2f deg", r.ASes.MedianSpreadDeg))
	at.AddRow("p90 latitude spread", fmt.Sprintf("%.2f deg", r.ASes.P90SpreadDeg))
	at.AddRow("direct-exposure ASes", fmt.Sprint(r.ASes.ByExposure[asn.ExposureDirect]))
	at.AddRow("indirect-exposure ASes", fmt.Sprint(r.ASes.ByExposure[asn.ExposureIndirect]))
	at.AddRow("low-exposure ASes", fmt.Sprint(r.ASes.ByExposure[asn.ExposureLow]))
	return at.Render(w)
}
