package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's side of a
// layer boundary: an operation, or one call the operation made into a
// layer. Parent is the index of the enclosing span, -1 for an operation.
type span struct {
	Name       string `json:"name"`
	Op         int    `json:"op"`
	Parent     int    `json:"parent"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and costs one nil check per boundary, which is how the
// untraced runs that give the end-to-end metrics use it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// memAt holds TotalAlloc at the start of open spans that track
	// allocation.
	memAt map[int]uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), memAt: map[int]uint64{}} }

// begin opens a span and returns its id. withAlloc also records the bytes
// the process allocates until end; it reads runtime.MemStats, so it is
// only used on spans of tens of milliseconds or more.
func (t *tracer) begin(name string, op, parent int, withAlloc bool) int {
	if t == nil {
		return -1
	}
	var alloc uint64
	if withAlloc {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc = ms.TotalAlloc
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	if withAlloc {
		t.memAt[id] = alloc
	}
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	start, tracked := t.memAt[id]
	t.mu.Unlock()
	var alloc uint64
	if tracked {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc = ms.TotalAlloc - start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	if tracked {
		t.spans[id].AllocBytes = alloc
		delete(t.memAt, id)
	}
}

// layer runs fn inside a child span of parent and returns fn's error.
func (t *tracer) layer(name string, op, parent int, fn func() error) error {
	id := t.begin(name, op, parent, true)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each span's duration minus its children's durations,
// in nanoseconds, indexed like spans. A span's children run one after
// another and end before it does; spans that run concurrently (the serve
// requests) are operations, with no parent.
func selfTimes(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			out[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return out
}

// spanStats gathers the self times (ms) and allocations (MB) of every span
// called name, optionally only those whose parent is called parentName.
func spanStats(spans []span, self []int64, name, parentName string) (ms, mb []float64) {
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		if parentName != "" && (s.Parent < 0 || spans[s.Parent].Name != parentName) {
			continue
		}
		ms = append(ms, float64(self[i])/1e6)
		mb = append(mb, float64(s.AllocBytes)/(1<<20))
	}
	return ms, mb
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	RunS     float64            `json:"run_s"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
	Metrics  map[string]metric  `json:"metrics"`
	Spans    []span             `json:"spans"`
}

// write saves the spans, the total self time per span name and the
// metrics derived from them under dir.
func (t *tracer) write(dir, workload string, seed uint64, runS float64, m map[string]metric) (string, error) {
	spans, self := t.snapshot()
	byName := map[string]float64{}
	for i, s := range spans {
		byName[s.Name] += float64(self[i]) / 1e6
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, RunS: runS, SelfMs: byName, Metrics: m, Spans: spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// snapshot returns the spans recorded so far and their self times.
func (t *tracer) snapshot() ([]span, []int64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return spans, selfTimes(spans)
}

// runtimeSample holds the Go runtime counters read at a layer boundary.
type runtimeSample struct {
	gcCPU float64
	sched *metrics.Float64Histogram
}

const (
	gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"
	schedMetric = "/sched/latencies:seconds"
)

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: gcCPUMetric}, {Name: schedMetric}}
	metrics.Read(s)
	out := runtimeSample{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[1].Value.Float64Histogram()
	}
	return out
}

// schedWaitQuantile returns the q-quantile, in ms, of the goroutine
// scheduling latencies observed between two samples: the time runnable
// work waited for a CPU.
func schedWaitQuantile(before, after runtimeSample, q float64) float64 {
	if before.sched == nil || after.sched == nil || len(before.sched.Counts) != len(after.sched.Counts) {
		return 0
	}
	counts := make([]uint64, len(after.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.sched.Counts[i] - before.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > want {
			// Report the bucket's upper edge; the last bucket is
			// unbounded, so fall back to its lower edge.
			hi := after.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.sched.Buckets[i]
			}
			return hi * 1e3
		}
	}
	return after.sched.Buckets[len(after.sched.Buckets)-2] * 1e3
}
