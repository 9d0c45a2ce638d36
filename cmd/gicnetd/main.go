// Command gicnetd is the long-running scenario-serving daemon: it pins a
// fleet of worlds (a generator-seed sensitivity grid), shards them
// across executor pools with tiered caching, singleflight dedup and
// cross-request sweep batching (internal/serve), and answers scenario
// requests over HTTP.
//
// Usage:
//
//	gicnetd -addr :8459 -worlds 1859,1921,1989 -shards 4 -workers 2
//
// Endpoints:
//
//	POST /scenario  — body: a serve.Request JSON object of at most 1 MiB
//	                  with no unknown fields; response: the
//	                  serve.Response, including the deterministic replay
//	                  fingerprint and provenance tag
//	GET  /stats     — per-shard tier counters and contraction stats
//	GET  /healthz   — liveness, pinned world count
//
// Example request:
//
//	curl -s localhost:8459/scenario -d '{"network":"submarine",
//	  "model":"uniform","p":0.1,"spacing_km":100,"trials":1024,"seed":7}'
//
// Every response's "fingerprint" equals the offline run of the echoed
// canonical request (sim.Run with the same configuration), whatever mix
// of cache, dedup and batching served it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gicnetd: ")

	addr := flag.String("addr", ":8459", "listen address")
	worlds := flag.String("worlds", strconv.FormatUint(dataset.DefaultSeed, 10),
		"comma-separated generator seeds to pin as the world fleet")
	shards := flag.Int("shards", 4, "shard count (each (world,network) pair is owned by one shard)")
	workers := flag.Int("workers", 2, "executor goroutines per shard, one arena each")
	resultCap := flag.Int("result-cache-cap", 4096, "result-tier entries per shard")
	planCap := flag.Int("plan-cache-cap", 64, "plan-tier entries per shard")
	maxTrials := flag.Int("max-trials", 1<<20, "reject requests above this trial budget")
	baseline := flag.Bool("baseline", false, "serve without any tiers (pricing mode)")
	flag.Parse()

	seeds, err := parseSeeds(*worlds)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pinning %d world(s): %v", len(seeds), seeds)
	srv, err := serve.New(serve.Config{
		WorldSeeds:      seeds,
		Shards:          *shards,
		WorkersPerShard: *workers,
		ResultCacheCap:  *resultCap,
		PlanCacheCap:    *planCap,
		MaxTrials:       *maxTrials,
		Baseline:        *baseline,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: newMux(srv),
		// Bound how long a client may hold a connection without sending a
		// request. No WriteTimeout: a large computed request can
		// legitimately run for minutes before its response is written.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("got %v, shutting down", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	srv.Close()
}

// maxRequestBytes bounds a /scenario body; a serve.Request is a few
// hundred bytes of JSON.
const maxRequestBytes = 1 << 20

// newMux routes the daemon's endpoints to srv.
func newMux(srv *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/scenario", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a serve.Request JSON object", http.StatusMethodNotAllowed)
			return
		}
		// Unknown fields are refused, so a misspelt option (say "trails")
		// fails instead of silently running the default.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		var req serve.Request
		if err := dec.Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, fmt.Sprintf("bad request body: %v", err), status)
			return
		}
		resp, err := srv.Do(r.Context(), req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, serve.ErrServerClosed) {
				status = http.StatusServiceUnavailable
			} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusRequestTimeout
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, srv.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"ok": true, "worlds": len(srv.WorldSeeds())})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func parseSeeds(s string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		seed, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad world seed %q: %w", part, err)
		}
		seeds = append(seeds, seed)
	}
	if len(seeds) == 0 {
		return nil, errors.New("no world seeds given")
	}
	return seeds, nil
}
