package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The reference host is a virtual machine whose hypervisor takes back a
// varying share of its CPU time ("steal" in /proc/stat): from under 1% to
// over a third of the VM's demand from one minute to the next. The same
// storm run read 7.9 s of wall time at 0.2% steal and 14.2 s at 36%. So
// every time the end-to-end metrics report is wall time with the stolen
// share removed: an interval's wall time times 1 - steal/busy over the
// interval, where busy counts every non-idle tick of the VM, steal
// included. Time the VM was granted counts in full; time the hypervisor
// held every runnable vCPU does not. Where /proc/stat cannot be read the
// raw wall time is reported.

// stopwatch times one interval.
type stopwatch struct {
	t0          time.Time
	steal, busy uint64
	ok          bool
}

func startWatch() stopwatch {
	steal, busy, ok := readCPUTicks()
	return stopwatch{t0: time.Now(), steal: steal, busy: busy, ok: ok}
}

// elapsed returns the interval so far with the steal share removed, and
// the raw wall time.
func (w stopwatch) elapsed() (granted, wall time.Duration) {
	wall = time.Since(w.t0)
	steal, busy, ok := readCPUTicks()
	if !ok || !w.ok || busy <= w.busy || steal < w.steal {
		return wall, wall
	}
	share := float64(steal-w.steal) / float64(busy-w.busy)
	return time.Duration(float64(wall) * (1 - share)), wall
}

// readCPUTicks returns the VM-wide steal and busy tick counters from the
// first line of /proc/stat.
func readCPUTicks() (steal, busy uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPULine(line)
}

// parseCPULine reads "cpu user nice system idle iowait irq softirq steal
// ...": busy is user+nice+system+irq+softirq+steal.
func parseCPULine(line string) (steal, busy uint64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = n
	}
	steal = v[7]
	return steal, v[0] + v[1] + v[2] + v[5] + v[6] + steal, true
}
