package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gicnet/internal/failure"
	"gicnet/internal/topology"
)

// lineNetwork builds a path network with n single-segment cables, sized so
// trial loops are cheap but non-trivial. Shared by the cancellation and
// arena-guard tests.
func lineNetwork(n int) *topology.Network {
	net := &topology.Network{Name: fmt.Sprintf("line-%d", n)}
	for i := 0; i <= n; i++ {
		net.Nodes = append(net.Nodes, topology.Node{Name: fmt.Sprintf("n%d", i)})
	}
	for i := 0; i < n; i++ {
		net.Cables = append(net.Cables, topology.Cable{
			Name:        fmt.Sprintf("c%d", i),
			Segments:    []topology.Segment{{A: i, B: i + 1, LengthKm: 1500}},
			KnownLength: true,
		})
	}
	return net
}

// stableGoroutineCount samples the goroutine count after letting any
// winding-down workers exit; the retry loop absorbs unrelated runtime
// goroutines coming and going.
func stableGoroutineCount(baseline int) int {
	count := runtime.NumGoroutine()
	for i := 0; i < 200 && count > baseline; i++ {
		time.Sleep(5 * time.Millisecond)
		count = runtime.NumGoroutine()
	}
	return count
}

// TestSweepCancellationPromptNoLeaks proves the cancellation contract the
// serving layer depends on: cancelling a large in-flight sweep returns
// promptly (bounded by a couple of trial blocks, not the full sweep) and
// leaves no worker goroutines behind. Run with -race to cover the
// worker-pool teardown.
func TestSweepCancellationPromptNoLeaks(t *testing.T) {
	net := lineNetwork(256)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	// A sweep sized to take seconds if cancellation were ignored: many
	// points, many trials per point.
	ps := make([]float64, 64)
	for i := range ps {
		ps[i] = 0.01 + 0.9*float64(i)/float64(len(ps))
	}
	cfg := Config{Model: failure.Uniform{}, SpacingKm: 100, Trials: 200000, Seed: 11, Workers: 4}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		// Let the sweep get properly underway before pulling the plug.
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := SweepUniform(ctx, net, cfg, ps)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned err=%v, want context.Canceled", err)
	}
	// Workers must notice cancellation between trial blocks, so the return
	// is bounded by block granularity, not sweep size. The full sweep takes
	// tens of seconds; 2s is generous for a busy CI box while still
	// catching any straggler that finishes its whole point first.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled sweep took %v to return; cancellation is not prompt", elapsed)
	}
	if got := stableGoroutineCount(baseline); got > baseline {
		t.Fatalf("goroutines after cancelled sweep: %d, baseline %d — workers leaked", got, baseline)
	}
}

// TestRunCancellationPromptNoLeaks is the same proof for the flat trial
// engine: a cancelled Run with a parallel worker pool returns promptly and
// tears every worker down.
func TestRunCancellationPromptNoLeaks(t *testing.T) {
	net := lineNetwork(256)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: failure.Uniform{P: 0.3}, SpacingKm: 100, Trials: 5_000_000, Seed: 5, Workers: 4}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := Run(ctx, net, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned err=%v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v to return; cancellation is not prompt", elapsed)
	}
	if got := stableGoroutineCount(baseline); got > baseline {
		t.Fatalf("goroutines after cancelled run: %d, baseline %d — workers leaked", got, baseline)
	}
}

// TestForEachCancellationBeforeStart pins the degenerate edge: a context
// cancelled before ForEach is entered must dispatch nothing and return the
// context error from every shape of the fan-out.
func TestForEachCancellationBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		err := ForEach(ctx, 100, workers, func(i int) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		if ran {
			t.Fatalf("workers=%d: tasks dispatched despite pre-cancelled context", workers)
		}
	}
}

// TestArenaRunPlanMatchesRunPlan proves the serving layer's execution
// primitive is bit-identical to the package-level engine: running a shared
// compiled plan through an arena yields the same fingerprint as RunPlan
// and as a full sim.Run of the same configuration, also when the arena's
// worker slots grow and shrink from call to call.
func TestArenaRunPlanMatchesRunPlan(t *testing.T) {
	net := testNet()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: failure.Uniform{P: 0.2}, SpacingKm: 150, Trials: 200, Seed: 77, Workers: 1}
	plan, err := failure.Compile(net, cfg.Model, cfg.SpacingKm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunPlan(context.Background(), plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	for i, workers := range []int{1, 4, 2, 1} { // repeated reuse must not drift
		c := cfg
		c.Workers = workers
		got, err := a.RunPlan(context.Background(), plan, c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("arena RunPlan fingerprint %016x != RunPlan %016x (iteration %d, workers %d)",
				got.Fingerprint(), want.Fingerprint(), i, workers)
		}
	}
	direct, err := Run(context.Background(), net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Fingerprint() != want.Fingerprint() {
		t.Fatalf("sim.Run fingerprint %016x != RunPlan %016x", direct.Fingerprint(), want.Fingerprint())
	}

	// Zero-trial misuse stays an error on the arena path too.
	if _, err := a.RunPlan(context.Background(), plan, Config{Trials: 0}); err == nil {
		t.Fatal("RunPlan with zero trials must error")
	}
}
