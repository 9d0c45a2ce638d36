package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 30},
		{Name: "b", Parent: 0, StartNs: 30, EndNs: 50},
		{Name: "d", Parent: 2, StartNs: 35, EndNs: 45},
		{Name: "op", Parent: -1, StartNs: 200, EndNs: 260},
	}
	want := []int64{100 - 20 - 20, 20, 20 - 10, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	ms, _ := spanStats(spans, got, "op", "")
	if len(ms) != 2 || ms[0] != 60e-6 || ms[1] != 60e-6 {
		t.Errorf("op self times %v", ms)
	}
	if ms, _ := spanStats(spans, got, "d", "op"); len(ms) != 0 {
		t.Errorf("d has parent b, not op: %v", ms)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, -1, true)
	called := false
	if err := tr.layer("y", 0, id, func() error { called = true; return nil }); err != nil || !called {
		t.Fatalf("layer on a nil tracer: called %v, err %v", called, err)
	}
	tr.end(id)
}

func TestTracerWritesSpans(t *testing.T) {
	tr := newTracer()
	op := tr.begin("op", 3, -1, false)
	if err := tr.layer("layer", 3, op, func() error {
		_ = make([]byte, 1<<20)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tr.end(op)
	dir := t.TempDir()
	path, err := tr.write(dir, "wl", 9, 1.5, map[string]metric{"m": {Value: 1, Unit: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("trace written to %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 2 || tf.Spans[1].Parent != 0 || tf.Spans[1].Op != 3 || tf.Spans[0].EndNs < tf.Spans[1].EndNs {
		t.Fatalf("spans %+v", tf.Spans)
	}
	if tf.Spans[1].AllocBytes < 1<<20 {
		t.Errorf("layer span allocated %d bytes, want at least 1 MiB", tf.Spans[1].AllocBytes)
	}
	if _, ok := tf.SelfMs["layer"]; !ok || tf.RunS != 1.5 {
		t.Errorf("summary %+v", tf)
	}
}
