package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gicnet"
	"gicnet/internal/crosslayer"
	"gicnet/internal/rare"
	"gicnet/internal/routing"
	"gicnet/internal/serve"
	"gicnet/internal/topology"
)

// The serve workload pins a fleet of three worlds in gicnetd and sends it
// rounds of 43 requests from two closed-loop clients: 32 cold requests
// (four from each of the eight example families), 8 repeats of earlier
// requests (about one in five) and the 3 spacing probes. Budgets are a few
// thousand trials, so a computed request costs tens of milliseconds and
// the median request is a computed one.
const (
	serveNominalRoundS = 0.65
	serveMinRounds     = 4
	serveClients       = 2
	coldPerFamily      = 4
	nearRepeats        = 4 // sent right after their original: usually joined in flight
	farRepeats         = 4 // sent a few requests later: usually a cache hit
	replaySample       = 12
	healthTimeout      = 90 * time.Second
	requestTimeout     = 60 * time.Second
	clockTicksPerSec   = 100 // USER_HZ, the unit of /proc/<pid>/stat times
)

var fleetSeeds = []uint64{1859, 1921, 1989}

// spacingProbes exercise the repeater-count overflow: at a spacing this
// small every repeatered cable has astronomically many repeaters, so the
// right answer is at least the answer at 1 km. Their inputs do not depend
// on --seed and they fail on every run until the overflow is fixed.
var spacingProbes = []serve.Request{
	{WorldSeed: 1859, Network: "submarine", Model: "s1", SpacingKm: 1e-20, Trials: 2048, Seed: 7},
	{WorldSeed: 1859, Network: "submarine", Model: "uniform", P: 0.01, SpacingKm: 1e-20, Trials: 2048, Seed: 7},
	{WorldSeed: 1859, Network: "submarine", Model: "s1", SpacingKm: 1e-15, Trials: 2048, Seed: 7},
}

// probeSlots are the probes' positions within a round.
var probeSlots = []int{6, 20, 34}

// families mirror the eight example programs as request shapes. Trial
// budgets are scaled per network and scorer so that each computed request
// costs about 20-60 ms on the reference host.
var families = []func(s *stream, ws, sweepSeed uint64) serve.Request{
	// quickstart: the S1/S2 headline on all three maps.
	func(s *stream, ws, _ uint64) serve.Request {
		net := []string{"submarine", "intertubes", "itu"}[s.intn(3)]
		trials := 8192
		if net == "itu" {
			trials = 4096
		}
		return serve.Request{WorldSeed: ws, Network: net, Model: []string{"s1", "s2"}[s.intn(2)], SpacingKm: 150, Trials: trials, Seed: s.next()}
	},
	// model-sensitivity: S1/S2 across repeater spacings.
	func(s *stream, ws, _ uint64) serve.Request {
		return serve.Request{WorldSeed: ws, Network: "submarine", Model: []string{"s1", "s2"}[s.intn(2)],
			SpacingKm: []float64{50, 100, 150}[s.intn(3)], Trials: 8192, Seed: s.next()}
	},
	// country-impact: S1 with stranded users scored through the AS layer.
	func(s *stream, ws, _ uint64) serve.Request {
		return serve.Request{WorldSeed: ws, Network: "submarine", Model: "s1", SpacingKm: 150, Trials: 2048, Seed: s.next(), CrossLayer: true}
	},
	// recovery-timeline: single-storm draws on the two located maps.
	func(s *stream, ws, _ uint64) serve.Request {
		return serve.Request{WorldSeed: ws, Network: []string{"submarine", "intertubes"}[s.intn(2)], Model: "s1", SpacingKm: 150, Trials: 8192, Seed: s.next()}
	},
	// shutdown-planning: a uniform sweep on one seed per round, the shape
	// the daemon can coalesce into one batch.
	func(s *stream, ws, sweepSeed uint64) serve.Request {
		return serve.Request{WorldSeed: ws, Network: "submarine", Model: "uniform", P: 0.05 * float64(1+s.intn(10)), SpacingKm: 100, Trials: 8192, Seed: sweepSeed}
	},
	// satellite-exposure: importance sampling at small p.
	func(s *stream, ws, _ uint64) serve.Request {
		return serve.Request{WorldSeed: ws, Network: "submarine", Model: "uniform", P: []float64{0.001, 0.002, 0.005}[s.intn(3)],
			SpacingKm: 100, Trials: 8192, Seed: s.next(), Estimator: []string{"is", "is-qmc"}[s.intn(2)]}
	},
	// traffic-shift: QMC runs scored for demand-weighted stranding.
	func(s *stream, ws, _ uint64) serve.Request {
		return serve.Request{WorldSeed: ws, Network: "intertubes", Model: "uniform", P: 0.1 * float64(1+s.intn(2)),
			SpacingKm: 100, Trials: 2048, Seed: s.next(), Estimator: "qmc", CrossLayer: true}
	},
	// topology-design: uniform what-ifs on the land maps.
	func(s *stream, ws, _ uint64) serve.Request {
		if s.intn(2) == 0 {
			return serve.Request{WorldSeed: ws, Network: "intertubes", Model: "uniform", P: 0.1 * float64(1+s.intn(5)), SpacingKm: 100, Trials: 8192, Seed: s.next()}
		}
		return serve.Request{WorldSeed: ws, Network: "itu", Model: "uniform", P: []float64{0.02, 0.05}[s.intn(2)], SpacingKm: 100, Trials: 1024, Seed: s.next()}
	},
}

// serveOp is one HTTP request and what came back.
type serveOp struct {
	req    serve.Request
	body   []byte
	probe  bool
	sent   bool
	status int
	resp   []byte
	lat    time.Duration
	err    error
	prov   string // provenance of a decoded answer
}

// buildMix lays out every request of the run before timing starts, with
// bodies already encoded so the clients only send and read.
func buildMix(seed uint64, rounds int) ([]*serveOp, error) {
	var ops []*serveOp
	for r := 0; r < rounds; r++ {
		s := newStream(seed, 'Q', uint64(r))
		sweepSeed := s.next()
		var cold []serve.Request
		for _, f := range families {
			for k := 0; k < coldPerFamily; k++ {
				cold = append(cold, f(s, fleetSeeds[s.intn(len(fleetSeeds))], sweepSeed))
			}
		}
		for i := len(cold) - 1; i > 0; i-- {
			j := s.intn(i + 1)
			cold[i], cold[j] = cold[j], cold[i]
		}
		// near[i] marks a repeat right after cold[i]; far[i] a repeat of
		// cold[i-8] right after cold[i].
		near := map[int]bool{}
		for len(near) < nearRepeats {
			near[s.intn(len(cold))] = true
		}
		far := map[int]bool{}
		for len(far) < farRepeats {
			far[8+s.intn(len(cold)-8)] = true
		}
		var round []serve.Request
		var probe []bool
		for i, req := range cold {
			round, probe = append(round, req), append(probe, false)
			if near[i] {
				round, probe = append(round, req), append(probe, false)
			}
			if far[i] {
				round, probe = append(round, cold[i-8]), append(probe, false)
			}
		}
		for k, slot := range probeSlots {
			round = append(round[:slot], append([]serve.Request{spacingProbes[k]}, round[slot:]...)...)
			probe = append(probe[:slot], append([]bool{true}, probe[slot:]...)...)
		}
		for i, req := range round {
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			ops = append(ops, &serveOp{req: req, body: body, probe: probe[i]})
		}
	}
	return ops, nil
}

// daemon is one running gicnetd.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// launch starts gicnetd on a free loopback port and waits for its first
// healthy /healthz, which comes once the fleet is generated and pinned.
// It returns the time that took, with the steal share removed.
func launch(bin string) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, 0, err
	}
	seeds := make([]string, len(fleetSeeds))
	for i, s := range fleetSeeds {
		seeds[i] = strconv.FormatUint(s, 10)
	}
	cmd := exec.Command(bin, "-addr", addr, "-worlds", strings.Join(seeds, ","))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sw := startWatch()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start gicnetd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				took, _ := sw.elapsed()
				return d, took, nil
			}
		}
		if time.Since(sw.t0) > healthTimeout {
			_, _ = d.stop()
			return nil, 0, fmt.Errorf("gicnetd not healthy after %v", healthTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks gicnetd to shut down, waits for it to exit, and returns its
// resource usage over its whole life.
func (d *daemon) stop() (*syscall.Rusage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = d.cmd.Wait() // it has exited already; reap it
		return nil, fmt.Errorf("signal gicnetd: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return nil, fmt.Errorf("gicnetd ignored SIGTERM")
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("no rusage for gicnetd")
	}
	return ru, nil
}

// cpuSeconds reads the daemon's user+system time so far from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times")
	}
	return float64(utime+stime) / clockTicksPerSec, nil
}

func (d *daemon) stats(c *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// drive sends every op from serveClients closed-loop clients: each sends
// its next request only once the previous answer has been read.
func drive(ctx context.Context, d *daemon, c *http.Client, tr *tracer, ops []*serveOp, roundLen int) {
	g := &roundGate{n: len(ops), roundLen: roundLen, deadline: time.Now().Add(maxMeasured)}
	var wg sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := g.take()
				if i < 0 {
					return
				}
				op := ops[i]
				id := tr.begin("serve.request", i, -1, false)
				t0 := time.Now()
				op.status, op.resp, op.err = post(ctx, c, d.base+"/scenario", op.body)
				op.lat, op.sent = time.Since(t0), true
				tr.end(id)
			}
		}()
	}
	wg.Wait()
}

// roundGate hands out the indexes of n ops in order to concurrent clients.
// Once the deadline has passed it starts no new round of roundLen ops, so
// a run that is cut short still sends whole rounds and fails the same
// share of its requests as any other run.
type roundGate struct {
	mu                sync.Mutex
	next, n, roundLen int
	deadline          time.Time
	stopped           bool
}

// take returns the next index, or -1 when there is none to send.
func (g *roundGate) take() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.next%g.roundLen == 0 && time.Now().After(g.deadline) {
		g.stopped = true
	}
	if g.stopped || g.next >= g.n {
		return -1
	}
	g.next++
	return g.next - 1
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	rtBefore := readRuntime()
	bin, err := filepath.Abs(filepath.Join(cfg.buildDir, "gicnetd"))
	if err != nil {
		return nil, err
	}
	rounds := cfg.rounds(serveNominalRoundS, serveMinRounds)
	ops, err := buildMix(cfg.seed, rounds)
	if err != nil {
		return nil, err
	}

	// Set-up: launch the daemon setupRepeats times, keep the last one.
	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		id := cfg.tr.begin("gicnetd.launch", -1-i, -1, false)
		var took time.Duration
		if d, took, err = launch(bin); err != nil {
			return nil, err
		}
		cfg.tr.end(id)
		setups = append(setups, took.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = d.stop()
		}
	}()

	client := &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true},
	}
	before, err := d.stats(client)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	run := startWatch()
	drive(ctx, d, client, cfg.tr, ops, len(ops)/rounds)
	runS, wallS := run.elapsed()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := d.stats(client)
	if err != nil {
		return nil, err
	}
	ru, err := d.stop()
	stopped = true
	if err != nil {
		return nil, err
	}

	var lat, computed, cached, sizes timings
	var sent []*serveOp // all of them unless the run hit maxMeasured
	for _, op := range ops {
		if op.sent {
			sent = append(sent, op)
			lat.add(op.lat)
			sizes = append(sizes, float64(len(op.resp)))
		}
	}
	ops = sent

	chk, err := newServeChecker(cfg.tr)
	if err != nil {
		return nil, err
	}
	tl := chk.check(ctx, cfg, ops)
	for _, op := range ops {
		switch op.prov {
		case serve.ProvComputed:
			computed.add(op.lat)
		case serve.ProvCache:
			cached.add(op.lat)
		}
	}

	out := &outcome{
		attempted: tl.attempted, failed: tl.failed, correct: tl.wrong == 0,
		e2e: map[string]float64{
			// Requests overlap, so their latencies take the phase's
			// steal share rather than one of their own.
			"setup_s": median(setups), "run_s": runS.Seconds(), "p50_ms": median(lat) * ratio(runS.Seconds(), wallS.Seconds()),
			"cpu_s": rusageCPU(ru), "peak_rss_mb": float64(ru.Maxrss) / 1024,
		},
		wallRunS: wallS.Seconds(),
	}
	if cfg.tr != nil {
		spans, self := cfg.tr.snapshot()
		layer := map[string]float64{}
		setupLayers(layer, spans, self)
		layer["serve.computed_p50_ms"] = median(computed)
		layer["serve.cache_p50_ms"] = median(cached)
		var c tierCounts
		c.add(after, 1)
		c.add(before, -1)
		layer["serve.result_hit_ratio"] = ratio(c.resultHits, c.resultHits+c.resultMisses)
		layer["serve.plan_hit_ratio"] = ratio(c.planHits, c.planHits+c.planMisses)
		layer["serve.contraction_hit_ratio"] = ratio(c.contractHits, c.contractHits+c.contractMisses)
		layer["serve.dedup_share"] = ratio(c.dedup, c.requests)
		layer["serve.coalesced_share"] = ratio(c.coalesced, c.batched)
		fmt.Fprintf(os.Stderr, "perfbench: gicnetd answered %.0f requests, evicted %.0f result and plan entries\n", c.requests, c.evictions)
		layer["gicnetd.cpu_ms_per_req"] = ratio(1e3*(cpu1-cpu0), float64(len(ops)))
		layer["gicnetd.resp_bytes"] = median(sizes)
		replayMs, _ := spanStats(spans, self, "sim.Run", "serve.replay")
		var replayS float64
		for _, ms := range replayMs {
			replayS += ms / 1e3
		}
		layer["sim.trials_per_s"] = ratio(float64(chk.replayTrials), replayS)
		runtimeLayers(layer, rtBefore, readRuntime())
		out.layer = layer
	}
	return out, nil
}

// tierCounts holds gicnetd's /stats counters summed over shards and
// networks.
type tierCounts struct {
	requests, resultHits, resultMisses, planHits, planMisses float64
	dedup, coalesced, batched, contractHits, contractMisses  float64
	evictions                                                float64
}

// add adds sign times st's counters: add(after, 1) then add(before, -1)
// leaves the traffic of the run in between.
func (c *tierCounts) add(st serve.Stats, sign float64) {
	for _, s := range st.Shards {
		c.requests += sign * float64(s.Requests)
		c.resultHits += sign * float64(s.Results.Hits)
		c.resultMisses += sign * float64(s.Results.Misses)
		c.planHits += sign * float64(s.Plans.Hits)
		c.planMisses += sign * float64(s.Plans.Misses)
		c.dedup += sign * float64(s.Dedup)
		c.coalesced += sign * float64(s.Coalesced)
		c.batched += sign * float64(s.BatchedRequests)
		c.evictions += sign * float64(s.Results.Evictions+s.Plans.Evictions)
	}
	for _, n := range st.Contractions {
		c.contractHits += sign * float64(n.Hits)
		c.contractMisses += sign * float64(n.Misses)
	}
}

// serveChecker holds the fleet rebuilt in process, so answers can be
// recomputed offline.
type serveChecker struct {
	tr           *tracer
	worlds       map[uint64]*gicnet.World
	cross        map[string]*crosslayer.Index
	replayTrials int
}

func newServeChecker(tr *tracer) (*serveChecker, error) {
	c := &serveChecker{tr: tr, worlds: map[uint64]*gicnet.World{}, cross: map[string]*crosslayer.Index{}}
	for i, seed := range fleetSeeds {
		w, err := buildWorld(tr, seed, -10-i)
		if err != nil {
			return nil, err
		}
		c.worlds[seed] = w
	}
	return c, nil
}

func (c *serveChecker) network(req serve.Request) *topology.Network {
	w := c.worlds[req.WorldSeed]
	if w == nil {
		return nil
	}
	return networkByName(w, req.Network)
}

// check decodes every answer and fails the operations whose answer is
// wrong: a refused request, an answer that differs from another answer to
// the same request, a uniform answer away from the closed form, a spacing
// probe below the 1 km answer, or a replayed fingerprint that differs.
func (c *serveChecker) check(ctx context.Context, cfg runConfig, ops []*serveOp) tally {
	var tl tally
	type answer struct {
		resp serve.Response
		ok   bool
	}
	answers := make([]answer, len(ops))
	canonical := map[string]string{} // request -> first answer, provenance cleared
	for i, op := range ops {
		tl.attempted++
		if op.err != nil || op.status != http.StatusOK {
			if op.probe && op.status >= 400 && op.status < 500 {
				continue // refusing an impossible spacing is a right answer
			}
			tl.fail(false, "serve request %s: status %d, %v", op.body, op.status, op.err)
			continue
		}
		var r serve.Response
		if err := json.Unmarshal(op.resp, &r); err != nil {
			tl.fail(false, "serve request %s: undecodable answer: %v", op.body, err)
			continue
		}
		op.prov = r.Provenance
		if msg := c.checkAnswer(op, &r); msg != "" {
			tl.fail(op.probe, "serve request %s: %s", op.body, msg)
			continue
		}
		key, ans := answerKey(r)
		if prev, seen := canonical[key]; seen && prev != ans {
			tl.fail(op.probe, "serve request %s: %s answer differs from an earlier answer to the same request", op.body, r.Provenance)
			continue
		} else if !seen {
			canonical[key] = ans
		}
		answers[i] = answer{resp: r, ok: true}
	}
	// Replay a seeded sample of computed answers offline.
	var pool []int
	for i, a := range answers {
		if a.ok && !ops[i].probe && a.resp.Provenance == serve.ProvComputed {
			pool = append(pool, i)
		}
	}
	s := newStream(cfg.seed, 'R')
	for k := 0; k < replaySample && len(pool) > 0; k++ {
		j := s.intn(len(pool))
		i := pool[j]
		pool = append(pool[:j], pool[j+1:]...)
		if msg := c.replay(ctx, i, answers[i].resp); msg != "" {
			tl.fail(false, "serve request %s: %s", ops[i].body, msg)
		}
	}
	return tl
}

// answerKey returns the canonical request and the answer with the fields
// that legitimately differ between servings (provenance, batch, shard)
// cleared.
func answerKey(r serve.Response) (string, string) {
	// Marshalling these plain structs cannot fail.
	req, _ := json.Marshal(r.Request)
	r.Provenance, r.BatchSize, r.Shard = "", 0, 0
	ans, _ := json.Marshal(r)
	return string(req), string(ans)
}

func (c *serveChecker) checkAnswer(op *serveOp, r *serve.Response) string {
	if r.Request != op.req {
		return fmt.Sprintf("echoed request %+v differs from the one sent", r.Request)
	}
	net := c.network(op.req)
	if net == nil {
		return "unknown world or network"
	}
	if r.WorldFingerprint != net.Fingerprint() {
		return "world fingerprint differs from the world rebuilt offline"
	}
	switch {
	case op.probe:
		// The same request at 1 km: every answer at a smaller spacing must
		// be at least this (more repeaters can only kill more cables).
		var q []float64
		if op.req.Model == "s1" {
			q = tieredProbs(net, gicnet.S1().Probs, 1)
		} else {
			q = uniformProbs(net, op.req.P, 1)
		}
		ref, se := cableFracMoments(q, op.req.Trials)
		if r.CableFracMean < ref-checkSigmas*se-1e-12 {
			return fmt.Sprintf("cable fraction %.4f at %g km, below %.4f at 1 km", r.CableFracMean, op.req.SpacingKm, ref)
		}
	case op.req.Model == "uniform" && (op.req.Estimator == "" || op.req.Estimator == "qmc"):
		mean, se := cableFracMoments(uniformProbs(net, op.req.P, op.req.SpacingKm), op.req.Trials)
		if math.Abs(r.CableFracMean-mean) > checkSigmas*se+1e-12 {
			return fmt.Sprintf("cable fraction %.5f, closed form %.5f", r.CableFracMean, mean)
		}
	}
	return ""
}

// replay reruns one served request offline, through gicnet.Simulate
// (sim.Run) with fresh state, and compares fingerprints bit for bit.
func (c *serveChecker) replay(ctx context.Context, op int, r serve.Response) string {
	req := r.Request
	net := c.network(req)
	var model gicnet.FailureModel = gicnet.Uniform{P: req.P}
	switch req.Model {
	case "s1":
		model = gicnet.S1()
	case "s2":
		model = gicnet.S2()
	}
	sc := gicnet.SimConfig{Model: model, SpacingKm: req.SpacingKm, Trials: req.Trials, Seed: req.Seed, Workers: 1}
	switch req.Estimator {
	case "is":
		sc.Estimator = rare.NewIS(0)
	case "is-qmc":
		sc.Estimator = rare.NewISQMC(0)
	case "qmc":
		sc.Estimator = rare.NewQMC()
	}
	parent := c.tr.begin("serve.replay", op, -1, false)
	defer c.tr.end(parent)
	if req.CrossLayer {
		key := fmt.Sprintf("%d/%s", req.WorldSeed, req.Network)
		if c.cross[key] == nil {
			idx, err := crosslayer.Compile(net, c.worlds[req.WorldSeed].Routers, routing.DefaultDemands())
			if err != nil {
				return fmt.Sprintf("offline cross-layer index: %v", err)
			}
			c.cross[key] = idx
		}
		sc.CrossLayer = c.cross[key]
	}
	var res *gicnet.SimResult
	err := c.tr.layer("sim.Run", op, parent, func() (err error) {
		res, err = gicnet.Simulate(ctx, net, sc)
		return err
	})
	if err != nil {
		return fmt.Sprintf("offline replay: %v", err)
	}
	c.replayTrials += req.Trials
	if fp := res.Fingerprint(); fp != r.Fingerprint {
		return fmt.Sprintf("served fingerprint %016x, offline %016x", r.Fingerprint, fp)
	}
	return ""
}
