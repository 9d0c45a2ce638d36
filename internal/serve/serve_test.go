package serve_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"gicnet/internal/crosslayer"
	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/rare"
	"gicnet/internal/routing"
	"gicnet/internal/serve"
	"gicnet/internal/sim"
)

var (
	worldOnce sync.Once
	world     *dataset.World
	worldErr  error
)

// testWorld generates the canonical world once per test binary; every
// server in this file pins the same instance, so tests stay fast.
func testWorld(t *testing.T) *dataset.World {
	t.Helper()
	worldOnce.Do(func() {
		world, worldErr = dataset.GenerateWorld(dataset.DefaultWorldConfig(), dataset.DefaultSeed)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

func newServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	cfg.Worlds = append(cfg.Worlds, testWorld(t))
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// offlineFingerprint runs the request's canonical offline equivalent —
// sim.Run with the request's own configuration and fresh state — and
// returns its fingerprint. This is the provenance contract every served
// response must match.
func offlineFingerprint(t *testing.T, w *dataset.World, req serve.Request) uint64 {
	t.Helper()
	net := w.Submarine
	switch req.Network {
	case "intertubes":
		net = w.Intertubes
	case "itu":
		net = w.ITU
	}
	var model failure.Model = failure.Uniform{P: req.P}
	switch req.Model {
	case "s1":
		model = failure.S1()
	case "s2":
		model = failure.S2()
	}
	var est sim.Estimator
	switch req.Estimator {
	case "is":
		est = rare.NewIS(0)
	case "is-qmc":
		est = rare.NewISQMC(0)
	case "qmc":
		est = rare.NewQMC()
	}
	res, err := sim.Run(context.Background(), net, sim.Config{
		Model: model, SpacingKm: req.SpacingKm,
		Trials: req.Trials, Seed: req.Seed, Workers: 1, Estimator: est,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprint()
}

// TestServedMatchesOffline is the provenance contract: across networks,
// models and estimators, a served response's fingerprint equals the
// equivalent offline sim.Run, and re-serving hits the result tier with
// the identical answer.
func TestServedMatchesOffline(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 2, WorkersPerShard: 2})
	reqs := []serve.Request{
		{Network: "submarine", Model: "uniform", P: 0.2, SpacingKm: 100, Trials: 256, Seed: 1},
		{Network: "intertubes", Model: "uniform", P: 0.05, SpacingKm: 150, Trials: 128, Seed: 2},
		{Network: "itu", Model: "uniform", P: 0.5, SpacingKm: 50, Trials: 64, Seed: 3},
		{Network: "submarine", Model: "s1", SpacingKm: 100, Trials: 128, Seed: 4},
		{Network: "submarine", Model: "s2", SpacingKm: 150, Trials: 128, Seed: 5},
		{Network: "submarine", Model: "uniform", P: 0.01, SpacingKm: 100, Trials: 256, Seed: 6, Estimator: "is"},
		{Network: "intertubes", Model: "uniform", P: 0.02, SpacingKm: 100, Trials: 128, Seed: 7, Estimator: "is-qmc"},
		{Network: "itu", Model: "uniform", P: 0.3, SpacingKm: 100, Trials: 128, Seed: 8, Estimator: "qmc"},
	}
	for i, req := range reqs {
		resp, err := srv.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Provenance != serve.ProvComputed {
			t.Fatalf("request %d: first serve provenance %q, want computed", i, resp.Provenance)
		}
		want := offlineFingerprint(t, testWorld(t), resp.Request)
		if resp.Fingerprint != want {
			t.Fatalf("request %d: served fingerprint %016x != offline %016x", i, resp.Fingerprint, want)
		}
		again, err := srv.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d replay: %v", i, err)
		}
		if again.Provenance != serve.ProvCache {
			t.Fatalf("request %d: second serve provenance %q, want cache", i, again.Provenance)
		}
		if again.Fingerprint != want {
			t.Fatalf("request %d: cached fingerprint %016x != offline %016x", i, again.Fingerprint, want)
		}
	}
	st := srv.Stats()
	var hits uint64
	for _, sh := range st.Shards {
		hits += sh.Results.Hits
	}
	if hits != uint64(len(reqs)) {
		t.Fatalf("result-tier hits = %d, want %d", hits, len(reqs))
	}
}

// TestDefaultsAreCanonical pins that normalization's defaults are echoed
// back and reproducible offline.
func TestDefaultsAreCanonical(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1})
	resp, err := srv.Do(context.Background(), serve.Request{P: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	echoed := resp.Request
	if echoed.WorldSeed != dataset.DefaultSeed || echoed.Network != "submarine" ||
		echoed.Model != "uniform" || echoed.SpacingKm != 100 || echoed.Trials != 1024 {
		t.Fatalf("canonicalised request %+v does not carry the documented defaults", echoed)
	}
	if want := offlineFingerprint(t, testWorld(t), echoed); resp.Fingerprint != want {
		t.Fatalf("defaulted request fingerprint %016x != offline %016x", resp.Fingerprint, want)
	}
}

// blockThenFire occupies the single executor with a long scenario, waits
// until it has been dequeued, then returns — at which point anything
// enqueued is guaranteed to sit behind the blocker.
func blockThenFire(t *testing.T, srv *serve.Server) chan error {
	t.Helper()
	blockerDone := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), serve.Request{
			Network: "submarine", Model: "uniform", P: 0.5, SpacingKm: 100,
			Trials: 1 << 19, Seed: 999,
		})
		blockerDone <- err
	}()
	for {
		st := srv.Stats()
		var batches uint64
		for _, sh := range st.Shards {
			batches += sh.Batches
		}
		if batches >= 1 {
			return blockerDone
		}
		select {
		case err := <-blockerDone:
			// Blocker already finished — too fast to occupy the executor.
			if err != nil {
				t.Fatal(err)
			}
			blockerDone <- nil
			return blockerDone
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSingleflightDedup proves identical concurrent requests compute
// once: with the lone executor occupied, eight identical requests stack
// up as one owner and seven joiners.
func TestSingleflightDedup(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1})
	blockerDone := blockThenFire(t, srv)

	req := serve.Request{Network: "submarine", Model: "uniform", P: 0.1, SpacingKm: 100, Trials: 512, Seed: 42}
	const n = 8
	resps := make([]*serve.Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Do(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}

	want := offlineFingerprint(t, testWorld(t), resps[0].Request)
	computed := 0
	for i, resp := range resps {
		if resp == nil {
			t.Fatal("missing response")
		}
		if resp.Fingerprint != want {
			t.Fatalf("response %d fingerprint %016x != offline %016x", i, resp.Fingerprint, want)
		}
		if resp.Provenance == serve.ProvComputed {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d of %d identical requests computed, want exactly 1", computed, n)
	}
	st := srv.Stats()
	if st.Shards[0].Dedup == 0 {
		t.Fatal("no singleflight joins recorded for identical concurrent requests")
	}
}

// TestBatchCoalescing proves compatible sweep points queued behind a
// busy executor run as one shared batch, and that batching changes no
// answer.
func TestBatchCoalescing(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1})
	blockerDone := blockThenFire(t, srv)

	ps := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	resps := make([]*serve.Response, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p float64) {
			defer wg.Done()
			resp, err := srv.Do(context.Background(), serve.Request{
				Network: "submarine", Model: "uniform", P: p, SpacingKm: 100, Trials: 256, Seed: 7,
			})
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = resp
		}(i, p)
	}
	wg.Wait()
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}

	maxBatch := 0
	for i, resp := range resps {
		if resp == nil {
			t.Fatal("missing response")
		}
		if resp.BatchSize > maxBatch {
			maxBatch = resp.BatchSize
		}
		if want := offlineFingerprint(t, testWorld(t), resp.Request); resp.Fingerprint != want {
			t.Fatalf("sweep point %d: batched fingerprint %016x != offline %016x", i, resp.Fingerprint, want)
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing observed: max batch size %d, want >= 2", maxBatch)
	}
	st := srv.Stats()
	if st.Shards[0].Coalesced == 0 {
		t.Fatal("coalesced counter is zero despite batched responses")
	}
}

// TestResultTierEviction pins the LRU contract of the result tier: a
// tiny cache evicts, and evicted scenarios recompute to the same answer.
func TestResultTierEviction(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1, ResultCacheCap: 2})
	ctx := context.Background()
	mk := func(p float64) serve.Request {
		return serve.Request{Network: "submarine", Model: "uniform", P: p, SpacingKm: 100, Trials: 64, Seed: 1}
	}
	first, err := srv.Do(ctx, mk(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.2, 0.3} { // capacity 2: these evict 0.1
		if _, err := srv.Do(ctx, mk(p)); err != nil {
			t.Fatal(err)
		}
	}
	again, err := srv.Do(ctx, mk(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if again.Provenance != serve.ProvComputed {
		t.Fatalf("evicted scenario came back with provenance %q, want computed", again.Provenance)
	}
	if again.Fingerprint != first.Fingerprint {
		t.Fatalf("recomputed fingerprint %016x != original %016x", again.Fingerprint, first.Fingerprint)
	}
	if st := srv.Stats(); st.Shards[0].Results.Evictions == 0 {
		t.Fatal("result tier never evicted despite capacity 2 and 3 distinct scenarios")
	}
}

// TestRequestValidation pins the error surface of normalization.
func TestRequestValidation(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1, MaxTrials: 4096})
	ctx := context.Background()
	bad := []serve.Request{
		{WorldSeed: 777},                          // unpinned world
		{Network: "carrier-pigeon", P: 0.1},       // unknown network
		{Model: "meteor", P: 0.1},                 // unknown model
		{P: 1.5},                                  // p out of range
		{P: -0.1},                                 // p out of range
		{P: 0.1, SpacingKm: -5},                   // bad spacing
		{P: 0.1, Trials: 1 << 20},                 // over MaxTrials
		{P: 0.1, Trials: -3},                      // negative trials
		{P: 0.1, Estimator: "antithetic-psychic"}, // unknown estimator
	}
	for i, req := range bad {
		if _, err := srv.Do(ctx, req); err == nil {
			t.Fatalf("bad request %d (%+v) was accepted", i, req)
		}
	}
	if st := srv.Stats(); st.Shards[0].Requests != 0 {
		t.Fatalf("rejected requests reached a shard: %d", st.Shards[0].Requests)
	}
}

// TestRequestRefusesTinySpacing pins the repeater-count overflow fix at
// the service edge: a spacing far below the 1 km floor used to overflow
// the repeater count and serve a wrong, cached answer.
func TestRequestRefusesTinySpacing(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1})
	for _, spacing := range []float64{1e-20, 0.5, math.NaN(), math.Inf(1)} {
		_, err := srv.Do(context.Background(), serve.Request{Model: "s1", SpacingKm: spacing, Trials: 64})
		if !errors.Is(err, failure.ErrBadSpacing) {
			t.Fatalf("spacing %v: err = %v, want failure.ErrBadSpacing", spacing, err)
		}
	}
	if st := srv.Stats(); st.Shards[0].Requests != 0 {
		t.Fatalf("refused requests reached a shard: %d", st.Shards[0].Requests)
	}
}

// TestCloseRejectsAndDrains pins shutdown: Close returns with every
// executor gone, later Do calls fail fast, and Close is idempotent.
func TestCloseRejectsAndDrains(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 2, WorkersPerShard: 2})
	if _, err := srv.Do(context.Background(), serve.Request{P: 0.1, Trials: 64}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Do(context.Background(), serve.Request{P: 0.2, Trials: 64}); err != serve.ErrServerClosed {
		t.Fatalf("Do after Close returned %v, want ErrServerClosed", err)
	}
}

// TestWaiterCancellation pins that a caller abandoning its wait neither
// blocks nor tears down the shared computation.
func TestWaiterCancellation(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1})
	blockerDone := blockThenFire(t, srv)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := srv.Do(ctx, serve.Request{P: 0.1, Trials: 256, Seed: 5})
	if err != context.Canceled {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
	// The abandoned computation still completes and lands in the cache
	// (or is recomputed) with the right answer.
	resp, err := srv.Do(context.Background(), serve.Request{P: 0.1, Trials: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := offlineFingerprint(t, testWorld(t), resp.Request); resp.Fingerprint != want {
		t.Fatalf("post-cancel fingerprint %016x != offline %016x", resp.Fingerprint, want)
	}
}

// TestConcurrentMixedLoad hammers a sharded server from many goroutines
// with a deterministic scenario mix and checks every answer against the
// per-key consensus. Run with -race, this is also the pin that the
// per-shard arena pools never hand one Arena to two goroutines — the
// sim-side guard panics if serving ever violates that.
func TestConcurrentMixedLoad(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 3, WorkersPerShard: 2, ResultCacheCap: 32})
	nets := []string{"submarine", "intertubes", "itu"}
	ests := []string{"", "is", "qmc"}
	var mu sync.Mutex
	consensus := make(map[serve.Request]uint64)

	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := g*perG + i
				req := serve.Request{
					Network:   nets[v%len(nets)],
					Model:     "uniform",
					P:         0.05 * float64(v%7),
					SpacingKm: 100,
					Trials:    64 + 64*(v%3),
					Seed:      uint64(v % 5),
					Estimator: ests[v%len(ests)],
				}
				resp, err := srv.Do(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, ok := consensus[resp.Request]; ok && prev != resp.Fingerprint {
					t.Errorf("request %+v served two fingerprints: %016x and %016x", resp.Request, prev, resp.Fingerprint)
				} else {
					consensus[resp.Request] = resp.Fingerprint
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	// Spot-check the consensus against offline runs.
	checked := 0
	for req, fp := range consensus {
		if checked >= 5 {
			break
		}
		if want := offlineFingerprint(t, testWorld(t), req); fp != want {
			t.Fatalf("consensus fingerprint %016x != offline %016x for %+v", fp, want, req)
		}
		checked++
	}
	st := srv.Stats()
	var total uint64
	for _, sh := range st.Shards {
		total += sh.Requests
	}
	if total != goroutines*perG {
		t.Fatalf("shard request counters sum to %d, want %d", total, goroutines*perG)
	}
}

// TestBaselineMatchesFull pins that the pricing baseline is semantically
// identical to the full engine — only slower.
func TestBaselineMatchesFull(t *testing.T) {
	full := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1})
	base := newServer(t, serve.Config{Shards: 1, WorkersPerShard: 1, Baseline: true})
	req := serve.Request{Network: "submarine", Model: "uniform", P: 0.15, SpacingKm: 100, Trials: 256, Seed: 11}
	a, err := full.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("full %016x != baseline %016x", a.Fingerprint, b.Fingerprint)
	}
	// Baseline must not cache: the same request computes again.
	b2, err := base.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Provenance != serve.ProvComputed {
		t.Fatalf("baseline replay provenance %q, want computed", b2.Provenance)
	}
}

// TestServedCrossLayer pins the cross-layer serving path: a scored request
// matches its offline equivalent bit for bit, carries distinct cache
// identity from the plain request, survives the result tier, and is
// rejected on the coordinate-free ITU network.
func TestServedCrossLayer(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 2, WorkersPerShard: 2})
	w := testWorld(t)
	ctx := context.Background()

	req := serve.Request{Network: "submarine", Model: "s1", SpacingKm: 150, Trials: 64, Seed: 11, CrossLayer: true}
	resp, err := srv.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := crosslayer.Compile(w.Submarine, w.Routers, routing.DefaultDemands())
	if err != nil {
		t.Fatal(err)
	}
	off, err := sim.Run(ctx, w.Submarine, sim.Config{
		Model: failure.S1(), SpacingKm: 150, Trials: 64, Seed: 11, Workers: 1, CrossLayer: idx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fingerprint != off.Fingerprint() {
		t.Fatalf("served fingerprint %016x != offline scored run %016x", resp.Fingerprint, off.Fingerprint())
	}
	if resp.CrossStrandedShare < 0 || resp.CrossStrandedShare > 1 {
		t.Fatalf("served stranded share %v outside [0, 1]", resp.CrossStrandedShare)
	}
	if resp.CrossReachableFrac <= 0 || resp.CrossReachableFrac > 1 {
		t.Fatalf("served reachable frac %v outside (0, 1]", resp.CrossReachableFrac)
	}

	// The plain request is a different cache identity with its own
	// fingerprint and no cross fields.
	plain := req
	plain.CrossLayer = false
	presp, err := srv.Do(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	if presp.Provenance != serve.ProvComputed {
		t.Fatalf("plain variant served as %q; must not share the scored cache entry", presp.Provenance)
	}
	if presp.Fingerprint == resp.Fingerprint {
		t.Fatal("plain and scored runs share a fingerprint")
	}
	if presp.CrossReachableFrac != 0 || presp.CrossStrandedShare != 0 || presp.CrossDemandWeighted != 0 {
		t.Fatalf("plain response carries cross fields: %+v", presp)
	}

	// Cache round trip preserves the scored answer.
	again, err := srv.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Provenance != serve.ProvCache {
		t.Fatalf("second scored serve provenance %q, want cache", again.Provenance)
	}
	if again.Fingerprint != resp.Fingerprint || again.CrossStrandedShare != resp.CrossStrandedShare {
		t.Fatalf("cached scored response diverged: %+v vs %+v", again, resp)
	}

	// The ITU map exposes no coordinates: scoring must be rejected.
	if _, err := srv.Do(ctx, serve.Request{Network: "itu", Trials: 16, CrossLayer: true}); err == nil {
		t.Fatal("ITU cross-layer request must be rejected")
	}
}
