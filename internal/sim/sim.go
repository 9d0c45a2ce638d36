// Package sim is the Monte Carlo engine that powers every error-barred
// number in the paper's evaluation: it runs repeated failure trials over a
// network, in parallel, with bit-reproducible results.
//
// Reproducibility: each trial gets an RNG split from the run seed by trial
// index, so results do not depend on scheduling or worker count. Sweeps
// seed each point by index the same way, so parallel sweeps are
// byte-identical to serial ones.
//
// Performance: every run compiles its failure model into a failure.Plan
// once, and each worker reuses one packed dead-cable bitset, so the
// steady-state trial loop performs zero allocations. Sweeps go further:
// each sweep worker owns an Arena — a reusable compiled plan, bitset, and
// result storage — so a full figure sweep allocates only its output.
// Every trial loop goes through forEachBlock, which dispatches trial blocks
// through ForEachWorker, the package's one worker pool, by an atomic
// counter rather than a feeder channel — there is no feeder goroutine to
// deadlock when workers stop early, and an error (now only possible at
// compile/validate time) can never strand a blocked send.
package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gicnet/internal/crosslayer"
	"gicnet/internal/failure"
	"gicnet/internal/graph"
	"gicnet/internal/stats"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// Config describes one simulation run.
type Config struct {
	// Model is the repeater failure model.
	Model failure.Model
	// SpacingKm is the inter-repeater distance (50, 100 or 150 in the
	// paper's sweeps).
	SpacingKm float64
	// Trials is the number of Monte Carlo repetitions (the paper uses 10).
	Trials int
	// Seed drives the trial RNGs.
	Seed uint64
	// Workers caps parallelism; 0 means GOMAXPROCS.
	Workers int
	// Estimator, when non-nil, replaces the plain Monte Carlo trial
	// sampler with a custom one (importance sampling, quasi-Monte Carlo —
	// see internal/rare). nil leaves the engine on the historical path,
	// bit-identical to every recorded golden and replay fingerprint.
	Estimator Estimator
	// CrossLayer, when non-nil, scores every trial's dead-cable set at
	// the logical layer too (reachable AS pairs, stranded users — see
	// internal/crosslayer), filling Result.Cross alongside the physical
	// outcomes. The index must be compiled for the run's network. nil
	// leaves the engine on the historical path.
	CrossLayer *crosslayer.Index
}

// Estimator draws trial realisations in place of the plain Monte Carlo
// sampler. Implementations must honour the engine's determinism contract:
// the realisation and log weight of trial t may depend only on (plan,
// root's state, t), never on block boundaries, worker count, or call
// order, and SampleBlock must be safe for concurrent calls on distinct
// scratches. The engine evaluates the sampled rows exactly as it does
// plain trials; the weights ride along in Result.LogWeights.
type Estimator interface {
	// EstimatorName tags results and fingerprints; it must be a pure
	// function of the estimator's configuration.
	EstimatorName() string
	// SampleBlock fills rows 0..n-1 of s with the realisations of trials
	// t0..t0+n-1 and writes each trial's log likelihood ratio
	// log(dP/dQ) into logw[:n] (0 for unweighted estimators).
	SampleBlock(plan *failure.Plan, s *failure.BatchScratch, root *xrand.Source, t0 uint64, n int, logw []float64)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Model == nil {
		return errors.New("sim: nil model")
	}
	if err := failure.CheckSpacing(c.SpacingKm); err != nil {
		return err
	}
	if c.Trials <= 0 {
		return errors.New("sim: trials must be positive")
	}
	return nil
}

// Result aggregates outcomes over all trials of a run.
type Result struct {
	// Network and Model identify the run in reports.
	Network string
	Model   string
	// SpacingKm echoes the configuration.
	SpacingKm float64
	// CableFrac aggregates the fraction of failed cables per trial.
	CableFrac stats.Running
	// NodeFrac aggregates the fraction of unreachable nodes per trial.
	NodeFrac stats.Running
	// Outcomes holds the per-trial raw outcomes, in trial order.
	Outcomes []failure.Outcome
	// LogWeights holds the per-trial log likelihood ratios when the run
	// used an importance-sampling estimator, in trial order; nil on the
	// plain Monte Carlo path. CableFrac/NodeFrac still aggregate the raw
	// outcomes — under a tilted distribution those are statistics of the
	// proposal, and the weighted accessors below are the estimates of the
	// target distribution's means.
	LogWeights []float64
	// Estimator names the estimator that drew the trials ("" = plain
	// Monte Carlo).
	Estimator string
	// Cross holds the per-trial cross-layer scores, in trial order, when
	// the run carried a crosslayer.Index; nil otherwise.
	Cross []crosslayer.Score
}

// Weight returns trial i's likelihood ratio (1 on the plain path).
func (r *Result) Weight(i int) float64 {
	if r.LogWeights == nil {
		return 1
	}
	return math.Exp(r.LogWeights[i])
}

// WeightedMean returns the unnormalised importance-sampling estimate
// (1/n) sum_i w_i f(outcome_i) of E[f] under the compiled failure
// distribution. Because each w_i is an exact likelihood ratio the
// estimate is unbiased, and on the plain path (all weights 1) it reduces
// to the sample mean.
func (r *Result) WeightedMean(f func(failure.Outcome) float64) float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	total := 0.0
	for i, o := range r.Outcomes {
		total += r.Weight(i) * f(o)
	}
	return total / float64(len(r.Outcomes))
}

// ESS returns Kish's effective sample size (sum w)^2 / sum w^2 — how many
// plain trials the weighted sample is worth for mean estimation. On the
// plain path it equals the trial count; a collapsing ESS is the standard
// diagnostic for an overdriven tilt.
func (r *Result) ESS() float64 {
	if r.LogWeights == nil {
		return float64(len(r.Outcomes))
	}
	sum, sumSq := 0.0, 0.0
	for i := range r.LogWeights {
		w := r.Weight(i)
		sum += w
		sumSq += w * w
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / sumSq
}

// Fingerprint hashes the per-trial outcomes (FNV-1a over their binary
// representation, in trial order) together with the run identity. Two runs
// of the same configuration are byte-identical exactly when their
// fingerprints match, whatever the worker count — the replay layer of the
// verification subsystem compares fingerprints across worker counts to
// prove scheduling independence.
//
//gicnet:pure
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%g|", r.Network, r.Model, r.SpacingKm)
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, o := range r.Outcomes {
		word(uint64(o.CablesFailed))
		word(uint64(o.NodesUnreachable))
		word(math.Float64bits(o.CableFrac))
		word(math.Float64bits(o.NodeFrac))
	}
	// Estimator runs also pin their weights; plain runs hash exactly the
	// bytes they always did, so historical fingerprints stay valid.
	if r.LogWeights != nil {
		fmt.Fprintf(h, "|est=%s|", r.Estimator)
		for _, lw := range r.LogWeights {
			word(math.Float64bits(lw))
		}
	}
	// Cross-layer runs pin every per-trial score under their own section,
	// giving the metric its own fingerprint identity; runs without it hash
	// the historical bytes exactly.
	if r.Cross != nil {
		fmt.Fprintf(h, "|cross|")
		for i := range r.Cross {
			c := &r.Cross[i]
			word(uint64(c.ReachablePairs))
			word(uint64(c.StrandedASes))
			word(math.Float64bits(c.StrandedShare))
			for _, v := range c.RegionStranded {
				word(math.Float64bits(v))
			}
			word(math.Float64bits(c.DemandWeighted))
		}
	}
	return h.Sum64()
}

// Run executes the Monte Carlo simulation described by cfg on net.
// The context cancels long runs between trials.
func Run(ctx context.Context, net *topology.Network, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid network: %w", err)
	}
	plan, err := failure.Compile(net, cfg.Model, cfg.SpacingKm)
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, plan, cfg)
}

// RunPlan executes the trials of cfg against an already-compiled plan.
// cfg.Model and cfg.SpacingKm are ignored; the plan's own model and
// spacing identify the run. Callers that sweep many seeds over one
// (network, model, spacing) triple should compile once and call RunPlan.
func RunPlan(ctx context.Context, plan *failure.Plan, cfg Config) (*Result, error) {
	if cfg.Trials <= 0 {
		return nil, errors.New("sim: trials must be positive")
	}
	res := &Result{}
	outcomes := make([]failure.Outcome, cfg.Trials)
	var cross []crosslayer.Score
	if cfg.CrossLayer != nil {
		cross = make([]crosslayer.Score, cfg.Trials)
	}
	scr := make([]blockScratch, blockSlots(cfg.Workers, cfg.Trials))
	if err := runPlanInto(ctx, plan, cfg, res, outcomes, cross, scr); err != nil {
		return nil, err
	}
	return res, nil
}

// runPlanInto is the trial engine writing into caller-owned memory: res is
// overwritten, outcomes (length cfg.Trials) backs res.Outcomes, cross backs
// res.Cross (length cfg.Trials when cfg.CrossLayer is set, else nil), and
// scr holds one scratch per worker slot (see blockSlots). Trials run in
// blocks of failure.MaxBatch, but trial ti's RNG is still split from the
// seed by ti alone, so the result is identical for every worker count and
// bit-identical to the historical one-trial-at-a-time loop.
func runPlanInto(ctx context.Context, plan *failure.Plan, cfg Config, res *Result, outcomes []failure.Outcome, cross []crosslayer.Score, scr []blockScratch) error {
	if cfg.Trials <= 0 {
		return errors.New("sim: trials must be positive")
	}
	idx := cfg.CrossLayer
	if idx != nil {
		if idx.Network() != plan.Network() {
			return errors.New("sim: cross-layer index compiled for a different network")
		}
		for i := range scr {
			scr[i].cross.Grow(idx)
		}
	}

	// The estimator path carries per-trial log weights; the plain path
	// must not even allocate the slice, so a nil-estimator run stays
	// byte-for-byte the historical engine.
	est := cfg.Estimator
	var logw []float64
	if est != nil {
		logw = make([]float64, cfg.Trials)
	}
	err := forEachBlock(ctx, plan, cfg.Trials, cfg.Seed, est, logw, scr, func(_ int, s *blockScratch, t0, n int) {
		plan.EvaluateBatch(&s.batch, n, outcomes[t0:t0+n])
		if idx != nil {
			idx.ScoreBatch(&s.batch, n, cross[t0:t0+n], &s.cross)
		}
	})
	if err != nil {
		return err
	}

	*res = Result{
		Network:    plan.Network().Name,
		Model:      plan.ModelName(),
		SpacingKm:  plan.SpacingKm(),
		Outcomes:   outcomes,
		LogWeights: logw,
		Cross:      cross,
	}
	if est != nil {
		res.Estimator = est.EstimatorName()
	}
	for _, o := range outcomes {
		res.CableFrac.Add(o.CableFrac)
		res.NodeFrac.Add(o.NodeFrac)
	}
	return nil
}

// blockScratch is one worker slot's trial-block storage: a copy of the
// run's RNG root, the drawn realisations, the cross-layer scorer's scratch
// and the labels scorer's connectivity scratch. A slot is owned by one
// goroutine at a time (see ForEachWorker), so blocks allocate nothing, and
// the root sits in the slot rather than in a heap cell of its own.
type blockScratch struct {
	root  xrand.Source
	batch failure.BatchScratch
	cross crosslayer.Scratch
	conn  *graph.Scratch // ForEachLabels only
}

// blockSlots is the worker-slot count of a trials-long run: the workers
// budget (0 means GOMAXPROCS) clamped to the block count, since a block is
// the dispatch unit and extra workers would only idle.
func blockSlots(workers, trials int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, (trials+failure.MaxBatch-1)/failure.MaxBatch)
}

// forEachBlock runs every trial loop in this package. It draws trials
// [0, trials) in failure.MaxBatch blocks — trial t from root.SplitAt(t) of
// seed, or from est when non-nil, which writes the trials' log weights
// into logw — dispatches the blocks through ForEachWorker over len(scr)
// worker slots, and hands each drawn block (first trial t0, n trials) to
// score on the slot w that owns its scratch s = &scr[w]. A trial's
// realisation depends only on (plan, seed, t), never on the slot count,
// so score sees the same rows whatever the parallelism.
func forEachBlock(ctx context.Context, plan *failure.Plan, trials int, seed uint64, est Estimator, logw []float64, scr []blockScratch, score func(w int, s *blockScratch, t0, n int)) error {
	for i := range scr {
		scr[i].root = *xrand.New(seed)
		scr[i].batch.Grow(plan)
	}
	blocks := (trials + failure.MaxBatch - 1) / failure.MaxBatch
	return ForEachWorker(ctx, blocks, len(scr), func(w, bi int) error {
		s := &scr[w]
		t0 := bi * failure.MaxBatch
		n := min(trials-t0, failure.MaxBatch)
		if est != nil {
			est.SampleBlock(plan, &s.batch, &s.root, uint64(t0), n, logw[t0:t0+n])
		} else {
			plan.SampleBatch(&s.batch, &s.root, uint64(t0), n)
		}
		score(w, s, t0, n)
		return nil
	})
}

// Arena is per-worker reusable state for repeated runs: a compiled plan,
// trial-block scratch per worker slot, and result storage, all recycled
// call after call so steady-state sweep cells allocate nothing. An Arena
// is not safe for concurrent use — give each worker its own. The zero
// value is ready.
type Arena struct {
	plan     failure.Plan
	scratch  []blockScratch // one per worker slot, serial and parallel runs alike
	outcomes []failure.Outcome
	cross    []crosslayer.Score
	res      Result
	uniforms map[float64]failure.Model // memoized boxed sweep models

	// owner is the concurrent-misuse guard: race-detector builds CAS it on
	// entry to every run and panic if a second goroutine is already inside
	// (see arena_guard_race.go). Non-race builds compile the check away.
	owner atomic.Int32
}

// uniformModel returns a Uniform model for p, memoized so repeated sweeps
// through the same probabilities don't re-box the interface value per point.
func (a *Arena) uniformModel(p float64) failure.Model {
	if m, ok := a.uniforms[p]; ok {
		return m
	}
	if a.uniforms == nil {
		a.uniforms = make(map[float64]failure.Model)
	}
	m := failure.Uniform{P: p}
	a.uniforms[p] = m
	return m
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// RunModel compiles cfg's model against net (reusing the arena's plan
// storage) and runs the trials. The returned Result and its Outcomes are
// owned by the arena and valid only until the next call; callers that keep
// them must copy. The network is assumed validated.
func (a *Arena) RunModel(ctx context.Context, net *topology.Network, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a.acquire()
	defer a.release()
	if cap(a.outcomes) < cfg.Trials {
		a.outcomes = make([]failure.Outcome, cfg.Trials)
	}
	if err := a.runInto(ctx, net, cfg, &a.res, a.outcomes[:cfg.Trials], a.crossBuf(cfg)); err != nil {
		return nil, err
	}
	return &a.res, nil
}

// slots returns the arena's block scratch sized for cfg's worker slots.
func (a *Arena) slots(cfg Config) []blockScratch {
	n := blockSlots(cfg.Workers, cfg.Trials)
	if len(a.scratch) < n {
		a.scratch = append(a.scratch, make([]blockScratch, n-len(a.scratch))...)
	}
	return a.scratch[:n]
}

// crossBuf returns the arena's cross-layer score buffer sized for cfg, or
// nil when the run carries no index.
func (a *Arena) crossBuf(cfg Config) []crosslayer.Score {
	if cfg.CrossLayer == nil {
		return nil
	}
	if cap(a.cross) < cfg.Trials {
		a.cross = make([]crosslayer.Score, cfg.Trials)
	}
	return a.cross[:cfg.Trials]
}

// RunPlan runs cfg's trials against a shared, already-compiled plan using
// the arena's scratch and result storage. The plan is immutable and safe to
// share across arenas and goroutines; only the arena is single-owner state.
// cfg.Model and cfg.SpacingKm are ignored — the plan identifies the run.
// Results are bit-identical to the package-level RunPlan; the returned
// Result and its Outcomes are owned by the arena and valid only until the
// next call. It is the serving layer's execution primitive: the plan comes
// from a cache tier, the arena from the shard's executor, and steady-state
// requests allocate nothing.
func (a *Arena) RunPlan(ctx context.Context, plan *failure.Plan, cfg Config) (*Result, error) {
	if cfg.Trials <= 0 {
		return nil, errors.New("sim: trials must be positive")
	}
	a.acquire()
	defer a.release()
	if cap(a.outcomes) < cfg.Trials {
		a.outcomes = make([]failure.Outcome, cfg.Trials)
	}
	if err := runPlanInto(ctx, plan, cfg, &a.res, a.outcomes[:cfg.Trials], a.crossBuf(cfg), a.slots(cfg)); err != nil {
		return nil, err
	}
	return &a.res, nil
}

// runInto compiles into the arena's plan and runs cfg, writing the result
// into caller-owned res/outcomes/cross storage.
func (a *Arena) runInto(ctx context.Context, net *topology.Network, cfg Config, res *Result, outcomes []failure.Outcome, cross []crosslayer.Score) error {
	if err := failure.CompileInto(&a.plan, net, cfg.Model, cfg.SpacingKm); err != nil {
		return err
	}
	return runPlanInto(ctx, &a.plan, cfg, res, outcomes, cross, a.slots(cfg))
}

// ForEach runs fn(0), ..., fn(n-1) across at most workers goroutines
// (0 means GOMAXPROCS) and returns the lowest-indexed error, if any. It is
// the fan-out primitive behind parallel sweeps and experiment grids: tasks
// claim indices from an atomic counter, and a failed task stops further
// dispatch. fn must be safe to call concurrently and should write results
// into its own index of a pre-sized slice.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachWorker(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach passing the worker slot (0..workers-1, after
// clamping to n) alongside the task index, so callers can thread
// per-worker arenas through the fan-out: a slot is owned by one goroutine
// at a time, never two concurrently.
func ForEachWorker(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(worker, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEachLabels is forEachBlock's labels scorer. It draws trials
// [0, trials) of plan as Run does — trial t from root.SplitAt(t) of seed —
// over at most workers slots (0 means GOMAXPROCS), and hands every trial
// to visit as a graph.CoreTrial on the plan's core contraction, together
// with the state of the slot that drew it. A trial runs at most one
// ComponentsCore, however many queries visit makes of it. Each slot's
// state comes from newState, and the states are returned for the caller
// to reduce: a trial's realisation depends only on (plan, seed, t), so a
// sum of per-trial counts over the states is the same at every worker
// count.
func ForEachLabels[S any](ctx context.Context, plan *failure.Plan, trials int, seed uint64, workers int, newState func() S, visit func(S, *graph.CoreTrial)) ([]S, error) {
	if trials <= 0 {
		return nil, errors.New("sim: trials must be positive")
	}
	cc := plan.Contraction()
	scr := make([]blockScratch, blockSlots(workers, trials))
	states := make([]S, len(scr))
	for i := range scr {
		scr[i].conn = plan.Network().Graph().NewScratch()
		states[i] = newState()
	}
	err := forEachBlock(ctx, plan, trials, seed, nil, nil, scr, func(w int, s *blockScratch, _, n int) {
		for b := 0; b < n; b++ {
			visit(states[w], s.conn.Trial(cc, s.batch.Row(b)))
		}
	})
	if err != nil {
		return nil, err
	}
	return states, nil
}

// Pair is one query of PairSurvival: do the From and To node sets stay
// connected?
type Pair struct {
	From, To []graph.NodeID
}

// PairSurvival estimates, for each pair, the probability that its node
// sets stay connected under the plan's failure distribution: the share of
// trials realisations — trial t seeded by SplitAt(t) from seed exactly
// like Run — with a surviving path between the sets. Every pair reads one
// shared trial set through ForEachLabels: each trial is drawn once, each
// pair tries the forest root-root shortcut first, and the trial's labels
// are built only when some pair misses it. The trials spread over the
// workers budget (0 means GOMAXPROCS) as per-slot integer counts, summed
// afterwards, so the answer does not depend on it. It is the trial loop
// behind the country-connectivity analysis, and internal/verify holds its
// answers bit for bit to a full-graph oracle.
func PairSurvival(ctx context.Context, plan *failure.Plan, trials int, seed uint64, workers int, pairs []Pair) ([]float64, error) {
	cc := plan.Contraction()
	from := make([][]int32, len(pairs))
	to := make([][]int32, len(pairs))
	for i, p := range pairs {
		if len(p.From) == 0 || len(p.To) == 0 {
			return nil, errors.New("sim: empty connectivity node set")
		}
		from[i] = cc.SupersOf(make([]int32, 0, len(p.From)), p.From)
		to[i] = cc.SupersOf(make([]int32, 0, len(p.To)), p.To)
	}
	counts, err := ForEachLabels(ctx, plan, trials, seed, workers,
		func() []int { return make([]int, len(pairs)) },
		func(survived []int, t *graph.CoreTrial) {
			for i := range survived {
				if t.Connected(from[i], to[i]) {
					survived[i]++
				}
			}
		})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(pairs))
	for i := range out {
		n := 0
		for _, c := range counts {
			n += c[i]
		}
		out[i] = float64(n) / float64(trials)
	}
	return out, nil
}

// SweepPoint is one (probability, result) pair of a probability sweep.
type SweepPoint struct {
	P      float64
	Result *Result
}

// SweepUniform runs one simulation per probability in ps with a uniform
// model — the x-axis sweep of the paper's Figures 6 and 7. Each point uses
// a seed split from cfg.Seed by index, so points are independent, the
// whole sweep is reproducible, and the parallel execution below is
// byte-identical to running the points serially.
//
// The cfg.Workers budget (0 = GOMAXPROCS) is shared across the sweep:
// points fan out first, and any budget beyond the point count parallelises
// trials within each point, with the remainder spread over the first
// budget%points points. Each point worker owns an Arena, so the sweep's
// only allocations are its output and the per-worker state.
func SweepUniform(ctx context.Context, net *topology.Network, cfg Config, ps []float64) ([]SweepPoint, error) {
	return sweepUniform(ctx, net, cfg, ps, nil)
}

// SweepUniformArena is SweepUniform reusing a caller-owned arena across
// points and across calls. The points run serially on the calling
// goroutine (inner trial parallelism still follows the worker budget);
// callers parallelise across sweeps instead, holding one arena per worker.
// Results are byte-identical to SweepUniform's.
func SweepUniformArena(ctx context.Context, net *topology.Network, cfg Config, ps []float64, a *Arena) ([]SweepPoint, error) {
	return sweepUniform(ctx, net, cfg, ps, a)
}

func sweepUniform(ctx context.Context, net *topology.Network, cfg Config, ps []float64, ext *Arena) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(ps))
	if len(ps) == 0 {
		return out, ctx.Err()
	}
	if cfg.Trials <= 0 {
		return nil, errors.New("sim: trials must be positive")
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid network: %w", err)
	}
	root := *xrand.New(cfg.Seed)
	budget := cfg.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	pointWorkers := budget
	if pointWorkers > len(ps) {
		pointWorkers = len(ps)
	}
	if ext != nil {
		pointWorkers = 1
	}
	inner, rem := budget/pointWorkers, budget%pointWorkers
	results := make([]Result, len(ps))
	backing := make([]failure.Outcome, len(ps)*cfg.Trials)
	var crossBacking []crosslayer.Score
	if cfg.CrossLayer != nil {
		crossBacking = make([]crosslayer.Score, len(ps)*cfg.Trials)
	}
	arenas := make([]*Arena, pointWorkers)
	if ext != nil {
		arenas[0] = ext
	}
	err := ForEachWorker(ctx, len(ps), pointWorkers, func(w, i int) error {
		a := arenas[w]
		if a == nil {
			a = NewArena()
			arenas[w] = a
		}
		c := cfg
		c.Model = a.uniformModel(ps[i])
		child := root.SplitAt(uint64(i))
		c.Seed = child.Uint64()
		c.Workers = inner
		if i < rem {
			c.Workers++
		}
		if c.Workers < 1 {
			c.Workers = 1
		}
		outcomes := backing[i*cfg.Trials : (i+1)*cfg.Trials : (i+1)*cfg.Trials]
		var cross []crosslayer.Score
		if crossBacking != nil {
			cross = crossBacking[i*cfg.Trials : (i+1)*cfg.Trials : (i+1)*cfg.Trials]
		}
		a.acquire()
		defer a.release()
		err := a.runInto(ctx, net, c, &results[i], outcomes, cross)
		if err != nil {
			return fmt.Errorf("sweep p=%g: %w", ps[i], err)
		}
		out[i] = SweepPoint{P: ps[i], Result: &results[i]}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultProbabilities is the x-axis of the paper's Figures 6-7:
// log-spaced from 0.001 to 1.
func DefaultProbabilities() []float64 {
	return []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}
}

// DefaultSpacings are the paper's inter-repeater distances in km.
func DefaultSpacings() []float64 { return []float64{50, 100, 150} }
