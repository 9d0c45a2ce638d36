// Command perfbench is gicnet's end-to-end benchmark. It runs one named
// workload on inputs drawn from --seed, times the program from outside,
// checks the program's answers after the timed phase against independent
// computations, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also records spans around every call into a layer, writes them to
// .bench_traces/, and prints the per-layer metrics derived from them.
//
// Workloads:
//
//	figures  the paper's Monte Carlo figure set, regenerated at several seeds
//	storm    integrated storm timelines plus low-latitude bridge planning
//	serve    gicnetd over loopback HTTP with a mostly cold request mix
//
// Run it through run.sh, which builds the benchmark and gicnetd from the
// checkout first:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics every untraced run prints, with their units.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run prints. A workload that
// does not reach a layer reports 0 for it: no time, no work, no hits.
var perLayer = []metricSpec{
	{"dataset.generate_ms", "ms"},
	{"dataset.alloc_mb", "MB"},
	{"topology.prewarm_ms", "ms"},
	{"experiments.fig67_ms", "ms"},
	{"experiments.fig8_ms", "ms"},
	{"experiments.countries_ms", "ms"},
	{"experiments.crosslayer_ms", "ms"},
	{"experiments.tail_ms", "ms"},
	{"experiments.alloc_mb", "MB"},
	{"sim.trials_per_s", "1/s"},
	{"topology.contraction_hit_ratio", "ratio"},
	{"rare.ess_share", "ratio"},
	{"scenario.severe_ms", "ms"},
	{"scenario.weak_ms", "ms"},
	{"scenario.faults_per_s", "1/s"},
	{"scenario.alloc_mb", "MB"},
	{"partition.recommend_ms", "ms"},
	{"partition.alloc_mb", "MB"},
	{"serve.computed_p50_ms", "ms"},
	{"serve.cache_p50_ms", "ms"},
	{"serve.result_hit_ratio", "ratio"},
	{"serve.plan_hit_ratio", "ratio"},
	{"serve.contraction_hit_ratio", "ratio"},
	{"serve.dedup_share", "ratio"},
	{"serve.coalesced_share", "ratio"},
	{"gicnetd.cpu_ms_per_req", "ms"},
	{"gicnetd.resp_bytes", "B"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.sched_wait_p90_ms", "ms"},
}

type metricSpec struct{ name, unit string }

// runConfig is what every workload receives.
type runConfig struct {
	seed     uint64
	seconds  int
	tr       *tracer // nil on untraced runs
	buildDir string  // where run.sh put the gicnetd binary
}

// rounds is how many whole rounds of a workload's fixed operation list a
// run attempts: the requested seconds over the round's nominal length on
// the reference host (2 vCPUs, see README.md). The count is fixed before
// timing starts, so every run of a given --seconds does the same work and
// cpu_s and run_s compare like with like.
func (c runConfig) rounds(nominalRoundS float64, min int) int {
	n := int(math.Round(float64(c.seconds) / nominalRoundS))
	if n < min {
		n = min
	}
	return n
}

// traceDir receives the spans of traced runs.
const traceDir = ".bench_traces"

// maxMeasured stops a run that has become far slower than nominal before
// it breaks the three-minute budget of one run; the rounds it finished
// are reported as they are.
const maxMeasured = 120 * time.Second

func overTime(run stopwatch) bool { return time.Since(run.t0) > maxMeasured }

// outcome is what a workload hands back.
type outcome struct {
	attempted, failed int
	correct           bool
	e2e               map[string]float64
	layer             map[string]float64 // filled on traced runs only
	wallRunS          float64            // run_s before the steal share is removed
}

// tally counts attempted and failed operations and whether every
// non-exempt check passed.
type tally struct {
	attempted, failed int
	wrong             int
	printed           map[string]bool
}

// fail records a failed operation; expected marks the one failure the
// benchmark keeps on purpose (see the serve spacing probes). Each distinct
// message is printed once.
func (t *tally) fail(expected bool, format string, args ...any) {
	t.failed++
	if !expected {
		t.wrong++
	}
	msg := fmt.Sprintf(format, args...)
	if t.printed == nil {
		t.printed = map[string]bool{}
	}
	if !t.printed[msg] {
		t.printed[msg] = true
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", msg)
	}
}

type workload func(ctx context.Context, cfg runConfig) (*outcome, error)

var workloads = map[string]workload{
	"figures": runFigures,
	"storm":   runStorm,
	"serve":   runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: figures, storm or serve")
	seed := flag.Uint64("seed", 1, "seed every workload input is drawn from")
	seconds := flag.Int("seconds", 20, "nominal length of the measured phase on the reference host")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	buildDir := flag.String("build-dir", ".bench_build", "directory holding the gicnetd binary")
	steady := flag.Bool("steady", false, "run the steadiness comparison instead of one workload")
	flag.Parse()

	if *steady {
		if err := runSteady(*buildDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want figures, storm or serve)\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, buildDir: *buildDir}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	specs, values := endToEnd, out.e2e
	if cfg.tr != nil {
		specs, values = perLayer, out.layer
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: run_s %.3f s granted, %.3f s wall\n", *name, *seed, out.e2e["run_s"], out.wallRunS)
	if cfg.tr != nil {
		path, err := cfg.tr.write(traceDir, *name, *seed, out.e2e["run_s"], res.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s (traced run_s %.3f)\n", path, out.e2e["run_s"])
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// selfUsage returns this process's user+system CPU seconds and peak
// resident set in MB.
func selfUsage() (cpuS, rssMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return rusageCPU(&ru), float64(ru.Maxrss) / 1024, nil
}

// rusageCPU sums user and system time.
func rusageCPU(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// timings collects per-operation latencies for p50_ms.
type timings []float64

func (t *timings) add(d time.Duration) { *t = append(*t, float64(d.Nanoseconds())/1e6) }

// layerMedian is the median self time (ms) and allocation (MB) of the
// spans named name, optionally under parents named parent.
func layerMedian(spans []span, self []int64, name, parent string) (ms, mb float64) {
	a, b := spanStats(spans, self, name, parent)
	if len(a) == 0 {
		return 0, 0
	}
	return median(a), median(b)
}

// setupLayers fills the set-up layer metrics shared by every workload.
func setupLayers(layer map[string]float64, spans []span, self []int64) {
	layer["dataset.generate_ms"], layer["dataset.alloc_mb"] = layerMedian(spans, self, "dataset.GenerateWorld", "")
	layer["topology.prewarm_ms"], _ = layerMedian(spans, self, "topology.prewarm", "")
}

// runtimeLayers fills the Go runtime metrics measured between two
// samples.
func runtimeLayers(layer map[string]float64, before, after runtimeSample) {
	layer["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
	layer["runtime.sched_wait_p90_ms"] = schedWaitQuantile(before, after, 0.9)
}
