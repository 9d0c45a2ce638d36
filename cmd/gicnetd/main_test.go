package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/serve"
	"gicnet/internal/sim"
)

// testDaemon serves the daemon's mux over the canonical world.
func testDaemon(t *testing.T) (*httptest.Server, *dataset.World) {
	t.Helper()
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Worlds: []*dataset.World{w}, Shards: 1, WorkersPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, w
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/scenario", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestScenarioMatchesOffline: a valid request answers 200 with the
// fingerprint of the equivalent offline sim.Run.
func TestScenarioMatchesOffline(t *testing.T) {
	ts, w := testDaemon(t)
	resp := post(t, ts.URL, `{"network":"submarine","model":"s1","spacing_km":150,"trials":256,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var got serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), w.Submarine, sim.Config{
		Model: failure.S1(), SpacingKm: 150, Trials: 256, Seed: 7, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Fingerprint(); got.Fingerprint != want {
		t.Fatalf("served fingerprint %016x, offline sim.Run %016x", got.Fingerprint, want)
	}
}

// TestScenarioRefusals: the edge refuses what it cannot answer faithfully
// before any work is queued.
func TestScenarioRefusals(t *testing.T) {
	ts, _ := testDaemon(t)
	if resp := post(t, ts.URL, `{"network":"submarine","trails":64}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	big := `{"network":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	if resp := post(t, ts.URL, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/scenario")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}
