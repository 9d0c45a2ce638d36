package serve

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/failure"
)

// newestPlan returns the plan of the shard's most recently used plan-tier
// entry.
func newestPlan(s *shard) *failure.Plan {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	return s.plans.head.val.plan
}

// TestEvictedPlansAreCollected drives many distinct estimator plans (p
// stepping by 1e-6) through a two-entry plan tier and requires every plan
// the tier evicted to become garbage: an estimator compiles a tilt per
// plan it samples, and nothing that outlives the tier's entry — a daemon-
// wide estimator cache in particular — may keep the plan or its tilt
// reachable, or a client varying p grows the daemon's heap without bound.
func TestEvictedPlansAreCollected(t *testing.T) {
	w, err := dataset.GenerateWorld(dataset.DefaultWorldConfig(), dataset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Worlds: []*dataset.World{w}, Shards: 1, WorkersPerShard: 1, PlanCacheCap: 2, ResultCacheCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const plans = 24
	var collected atomic.Int64
	names := []string{"is", "is-qmc", "qmc"}
	for i := 0; i < plans; i++ {
		req := Request{Network: "submarine", P: 0.01 + float64(i)*1e-6, SpacingKm: 100, Trials: 64, Estimator: names[i%len(names)]}
		if _, err := srv.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(newestPlan(srv.shards[0]), func(*failure.Plan) { collected.Add(1) })
	}
	want := int64(plans - srv.cfg.PlanCacheCap)
	for i := 0; i < 200 && collected.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got < want {
		t.Fatalf("%d of the %d plans the tier evicted were collected; the rest are still reachable", got, want)
	}
	if st := srv.shards[0].snapshot().Plans; st.Evictions != uint64(want) || st.Misses != plans {
		t.Fatalf("plan tier saw %d misses and %d evictions, want %d and %d", st.Misses, st.Evictions, plans, want)
	}
}
