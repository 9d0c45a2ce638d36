package failure

import (
	"sync"
	"testing"

	"gicnet/internal/xrand"
)

// logSkip is the skip the float sampler takes on the 53-bit draw m.
func logSkip(m uint64, e int) int {
	_, invLogq := envelope(e)
	return skipOfDraw(m, invLogq)
}

// TestSkipTablesMatchLog holds every table to the math.Log expression it
// replaces. Away from a breakpoint the expression's real value is further
// from an integer than math.Log's sub-ulp error can move it, so a table
// that is right on every breakpoint, on an exhaustive ±512-draw window
// around each, and on random draws between them is right on every draw.
func TestSkipTablesMatchLog(t *testing.T) {
	const window = 512
	for e := minSparseExp; e <= maxTableExp; e++ {
		tab := skipTables.get(e)
		if tab == nil || tab.k != e {
			t.Fatalf("envelope 2^-%d: table %+v", e, tab)
		}
		if tab.n != logSkip(1, e) {
			t.Fatalf("envelope 2^-%d: %d breakpoints, the longest skip is %d", e, tab.n, logSkip(1, e))
		}
		if len(tab.bps) != tab.n+2 || tab.bps[tab.n] != 1<<53 || tab.bps[tab.n+1] != 1<<53 {
			t.Fatalf("envelope 2^-%d: breakpoints not closed by two sentinels", e)
		}
		checked := uint64(0) // draws below this were already compared
		compare := func(lo, hi uint64) {
			if lo <= checked {
				lo = checked + 1
			}
			for m := lo; m <= hi; m++ {
				if got, want := tab.skip(m), logSkip(m, e); got != want {
					t.Fatalf("envelope 2^-%d, draw %d: table skip %d, math.Log skip %d", e, m, got, want)
				}
			}
			if hi > checked {
				checked = hi
			}
		}
		compare(1, 4<<e) // one cell per draw, several breakpoints per draw
		for i, b := range tab.bps[:tab.n] {
			j := tab.n - i // the first draw whose skip is below j
			if logSkip(b-1, e) < j || logSkip(b, e) >= j {
				t.Fatalf("envelope 2^-%d: breakpoint %d at draw %d, but skips %d then %d",
					e, j, b, logSkip(b-1, e), logSkip(b, e))
			}
			lo, hi := uint64(1), b+window
			if b > window+1 {
				lo = b - window
			}
			if hi > 1<<53-1 {
				hi = 1<<53 - 1
			}
			compare(lo, hi)
		}
		compare(1<<53-window, 1<<53-1)
	}
	rng := xrand.New(1859)
	tables := maxTableExp - minSparseExp + 1
	for i := 0; i < 1<<20; i++ {
		e := minSparseExp + i%tables
		m := rng.Uint64() >> 11
		if i&1 == 1 {
			m >>= rng.Intn(53) // log-uniform: short draws too
		}
		if m == 0 {
			continue
		}
		if got, want := skipTables.get(e).skip(m), logSkip(m, e); got != want {
			t.Fatalf("envelope 2^-%d, random draw %d: table skip %d, math.Log skip %d", e, m, got, want)
		}
	}
}

// TestSkipTablesOnlyWhereTabulated pins the split between tabulated
// envelopes and the math.Log step.
func TestSkipTablesOnlyWhereTabulated(t *testing.T) {
	for e := 0; e <= maxSparseExp; e++ {
		if got := skipTables.get(e) != nil; got != (e <= maxTableExp) {
			t.Fatalf("envelope 2^-%d: table present %v", e, got)
		}
	}
}

// TestSkipTablesFirstBuildConcurrent compiles plans that share one
// envelope from several goroutines at once against a fresh table set, so
// the table's first build races its readers (make race runs this under
// the race detector). Every plan must hold the one table, and sample as
// the float sampler does.
func TestSkipTablesFirstBuildConcurrent(t *testing.T) {
	saved := skipTables
	skipTables = new(skipTableSet)
	defer func() { skipTables = saved }()

	probs := make([]float64, 96)
	for i := range probs {
		probs[i] = 0.003 + 1e-5*float64(i) // envelope 2^-8
	}
	net := probsNetwork(len(probs))
	const workers = 4
	plans := make([]*Plan, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			plans[w], errs[w] = compileProbs(net, probs)
		}(w)
	}
	close(start)
	wg.Wait()
	for w, p := range plans {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if len(p.prog.groups) != 1 || p.prog.groups[0].skips == nil {
			t.Fatalf("plan %d: want one tabulated group, got %+v", w, p.prog.groups)
		}
		if p.prog.groups[0].skips != plans[0].prog.groups[0].skips || p.prog.groups[0].skips != skipTables.get(8) {
			t.Fatalf("plan %d holds a different table for envelope 2^-8", w)
		}
		sameAsFloat(t, p, twinStreams(&p.prog, p.deathProb, uint64(w)))
	}
}
