package verify

import (
	"context"
	"sync"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
	"gicnet/internal/rare"
	"gicnet/internal/serve"
	"gicnet/internal/sim"
)

// replayServed extends the replay invariant to the serving engine: a
// scenario answered by gicnetd's tiers — computed cold, joined in
// flight, coalesced into a batch, or replayed from the result cache —
// must carry exactly the fingerprint of the equivalent offline sim.Run.
// This is the provenance contract that lets a served number be cited as
// if it had been reproduced from scratch.
func replayServed(ctx context.Context, w *dataset.World) Result {
	const name = "replay-served"
	srv, err := serve.New(serve.Config{
		Worlds:          []*dataset.World{w},
		Shards:          2,
		WorkersPerShard: 2,
	})
	if err != nil {
		return fail(name, "starting server: %v", err)
	}
	defer srv.Close()

	reqs := []serve.Request{
		{Network: "submarine", Model: "s1", SpacingKm: 150, Trials: 128, Seed: dataset.DefaultSeed},
		{Network: "intertubes", Model: "uniform", P: 0.1, SpacingKm: 100, Trials: 128, Seed: 3},
		{Network: "itu", Model: "s2", SpacingKm: 50, Trials: 64, Seed: 5},
		{Network: "submarine", Model: "uniform", P: 0.001, SpacingKm: 100, Trials: 128, Seed: 7, Estimator: "is"},
	}
	for _, req := range reqs {
		resp, err := srv.Do(ctx, req)
		if err != nil {
			return fail(name, "serving %+v: %v", req, err)
		}
		want, err := offlineServed(ctx, w, resp.Request)
		if err != nil {
			return fail(name, "offline %+v: %v", resp.Request, err)
		}
		if resp.Fingerprint != want {
			return fail(name, "served fingerprint %016x != offline sim.Run %016x for %+v (provenance %s)",
				resp.Fingerprint, want, resp.Request, resp.Provenance)
		}
		cached, err := srv.Do(ctx, req)
		if err != nil {
			return fail(name, "re-serving %+v: %v", req, err)
		}
		if cached.Provenance != serve.ProvCache || cached.Fingerprint != want {
			return fail(name, "cache replay of %+v: provenance %s fingerprint %016x, want cache/%016x",
				req, cached.Provenance, cached.Fingerprint, want)
		}
	}

	// A concurrent uniform-p sweep exercises coalescing and dedup; every
	// point must still match its own offline run.
	ps := []float64{0.05, 0.1, 0.2, 0.3}
	resps := make([]*serve.Response, len(ps))
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p float64) {
			defer wg.Done()
			resps[i], errs[i] = srv.Do(ctx, serve.Request{
				Network: "submarine", Model: "uniform", P: p, SpacingKm: 100, Trials: 128, Seed: 11,
			})
		}(i, p)
	}
	wg.Wait()
	for i := range ps {
		if errs[i] != nil {
			return fail(name, "sweep point %g: %v", ps[i], errs[i])
		}
		want, err := offlineServed(ctx, w, resps[i].Request)
		if err != nil {
			return fail(name, "offline sweep point %g: %v", ps[i], err)
		}
		if resps[i].Fingerprint != want {
			return fail(name, "batched sweep point p=%g fingerprint %016x != offline %016x (batch size %d)",
				ps[i], resps[i].Fingerprint, want, resps[i].BatchSize)
		}
	}
	return pass(name, "%d served scenarios (cold, cached, batched sweep) all match offline sim.Run fingerprints",
		len(reqs)+len(ps))
}

// offlineServed runs the canonical offline equivalent of a canonicalised
// serve request: sim.Run with the request's own configuration and
// completely fresh state.
func offlineServed(ctx context.Context, w *dataset.World, req serve.Request) (uint64, error) {
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
	return runFingerprint(ctx, net, sim.Config{
		Model: model, SpacingKm: req.SpacingKm,
		Trials: req.Trials, Seed: req.Seed, Workers: 1, Estimator: est,
	})
}
