package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads: the workloads, the run length and each end-to-end metric's bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyRuns is the number of untraced runs in each of the two sets.
const steadyRuns = 10

// runSteady runs every workload of BENCHMARK.json in two sets of
// steadyRuns untraced runs of the same code (seeds 1..10, then 101..110)
// at its run_seconds, then one traced run, and prints for every
// end-to-end metric each set's median and quartiles, the quartile spread
// as a share of the median, the second median's change against the first,
// and a verdict against the metric's bound. It also prints the tracing
// overhead and the traced per-layer values. It fails when a run is not
// correct, when the runs do not all fail the same share of their
// operations, or when a spread or a change exceeds its bound.
func runSteady(buildDir string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness needs BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var unsteady []string
	for _, wl := range bf.Workloads {
		var sets [2][]result
		for s := range sets {
			for i := 0; i < steadyRuns; i++ {
				seed := uint64(100*s + i + 1)
				r, err := runChild(self, buildDir, wl.Name, seed, bf.RunSeconds, 0)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "perfbench: %s set %d seed %d: run_s %.3f\n", wl.Name, s+1, seed, r.Metrics["run_s"].Value)
				sets[s] = append(sets[s], r)
			}
		}
		traced, err := runChild(self, buildDir, wl.Name, 1, bf.RunSeconds, 1)
		if err != nil {
			return err
		}
		ok, err := report(os.Stdout, wl.Name, bf, sets, traced)
		if err != nil {
			return err
		}
		if !ok {
			unsteady = append(unsteady, wl.Name)
		}
	}
	if len(unsteady) > 0 {
		return fmt.Errorf("not steady: %s", strings.Join(unsteady, ", "))
	}
	return nil
}

// runChild runs one benchmark invocation and parses its last line.
func runChild(self, buildDir, wl string, seed uint64, seconds, trace int) (result, error) {
	var res result
	cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--build-dir", buildDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s seed %d: %w\n%s", wl, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: last line is not a result: %w", wl, seed, err)
	}
	return res, nil
}

// report prints one workload's comparison and says whether it passed.
func report(out io.Writer, wl string, bf benchmarkFile, sets [2][]result, traced result) (bool, error) {
	// Every run must be correct and fail exactly the same share of its
	// operations, compared in integers.
	first := sets[0][0]
	same := true
	for _, rs := range sets {
		for _, r := range rs {
			same = same && r.Correct && r.Failed*first.Attempted == first.Failed*r.Attempted
		}
	}
	fmt.Fprintf(out, "\n== %s: %d+%d untraced runs of %d s; failed %d of %d; every run correct with that share: %v\n",
		wl, len(sets[0]), len(sets[1]), bf.RunSeconds, first.Failed, first.Attempted, same)
	steady := same
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tset 1 median [q1, q3]\tspread\tset 2 median [q1, q3]\tspread\tchange\tbound\tverdict")
	for _, m := range bf.EndToEnd {
		var med, spread [2]float64
		var cells [2]string
		for s := range sets {
			var vals []float64
			for _, r := range sets[s] {
				vals = append(vals, r.Metrics[m.Name].Value)
			}
			q1, q2, q3, _ := quartiles(vals)
			med[s], spread[s] = q2, ratio(q3-q1, q2)
			cells[s] = fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
		}
		change := ratio(med[1]-med[0], med[0])
		v, ok := verdict(change, spread, m.Bound)
		steady = steady && ok
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\t%s\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
			m.Name, m.Unit, cells[0], 100*spread[0], cells[1], 100*spread[1], 100*change, 100*m.Bound, v)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	var untraced []float64
	for _, r := range sets[0] {
		untraced = append(untraced, r.Metrics["run_s"].Value)
	}
	tf, err := readTrace(wl, 1)
	if err != nil {
		return false, err
	}
	base := median(untraced)
	fmt.Fprintf(out, "tracing overhead: traced run_s %.3f (seed 1) against untraced median %.3f: %+.1f%%\n",
		tf.RunS, base, 100*ratio(tf.RunS-base, base))
	fmt.Fprintf(out, "per-layer metrics of the traced run (correct %v, %d attempted, %d failed):\n", traced.Correct, traced.Attempted, traced.Failed)
	for _, s := range perLayer {
		m := traced.Metrics[s.name]
		fmt.Fprintf(out, "  %-32s %12.4g %s\n", s.name, m.Value, m.Unit)
	}
	return steady, nil
}

// verdict judges one metric: the two sets' medians must agree within the
// bound in either direction, and neither set's quartile spread may exceed
// it.
func verdict(change float64, spread [2]float64, bound float64) (string, bool) {
	wide := max(spread[0], spread[1])
	switch {
	case math.Abs(change) > bound:
		return "DRIFT: the medians differ by more than the bound", false
	case wide > bound:
		return "WIDE: spread above the bound", false
	case wide > bound/3:
		return "ok, spread above a third of the bound", true
	}
	return "ok", true
}

func readTrace(wl string, seed uint64) (traceFile, error) {
	var tf traceFile
	data, err := os.ReadFile(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", wl, seed)))
	if err != nil {
		return tf, err
	}
	return tf, json.Unmarshal(data, &tf)
}
