package failure

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// probsNetwork is a ring of eight nodes and n cables, every cable long
// enough to carry repeaters at 150 km.
func probsNetwork(n int) *topology.Network {
	net := &topology.Network{Name: "probs"}
	for i := 0; i < 8; i++ {
		net.Nodes = append(net.Nodes, topology.Node{Name: fmt.Sprintf("n%d", i)})
	}
	for c := 0; c < n; c++ {
		net.Cables = append(net.Cables, topology.Cable{
			Name:        fmt.Sprintf("c%d", c),
			KnownLength: true,
			Segments:    []topology.Segment{{A: c % 8, B: (c + 1) % 8, LengthKm: 1000}},
		})
	}
	return net
}

// compileProbs compiles a plan over net and installs probs as its death
// probabilities: exact edge values (powers of two, subnormals, 1-2^-53)
// that no repeater count produces through 1-(1-p)^r.
func compileProbs(net *topology.Network, probs []float64) (*Plan, error) {
	plan, err := Compile(net, Uniform{P: 0.5}, 150)
	if err != nil {
		return nil, err
	}
	copy(plan.deathProb, probs)
	plan.buildSampler(true)
	return plan, nil
}

// sampleEdges are the probabilities where an integer threshold or a skip
// envelope could round differently from the float compare.
func sampleEdges() []float64 {
	ps := []float64{
		0, 1, 1 - 0x1p-53, maxTiltedProb, minTiltedProb,
		5e-324, 3 * 5e-324, 0x1p-1022, math.Nextafter(0x1p-1022, 0), 0x1p-1060,
	}
	for e := 1; e <= 70; e++ {
		p := math.Ldexp(1, -e)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	return ps
}

// thresholdVector draws n probabilities from seed: edge values, the
// fuzzer's own value, and a crowd in envelope 2^-focus (tabulated or not)
// so that a sparse bucket forms — some at one shared probability, some
// exactly at the envelope, which thins without a draw. Values that would
// bucket above the focus envelope are scaled down into it, so the focus
// bucket is the program's first and twinStreams can place its draws.
func thresholdVector(seed uint64, n, focus int, extra float64) []float64 {
	rng := xrand.New(seed)
	n = max(1, min(n, 2000))
	focus = minSparseExp + (focus%12+12)%12
	if !(extra >= 0 && extra <= 1) {
		extra = rng.Float64()
	}
	common := math.Ldexp(rng.Range(0.5, 1), -focus)
	edges := sampleEdges()
	probs := make([]float64, n)
	for i := range probs {
		switch r := rng.Intn(10); {
		case r < 3:
			probs[i] = edges[rng.Intn(len(edges))]
		case r < 4:
			probs[i] = extra
		case r < 6:
			probs[i] = common
		case r < 8:
			probs[i] = math.Ldexp(rng.Range(0.5, 1), -focus)
		case r < 9:
			probs[i] = math.Ldexp(1, -focus)
		default:
			probs[i] = math.Exp2(-70 * rng.Float64())
		}
		if p := probs[i]; p > 0 && p < 1 {
			if e := envExp(p); e >= minSparseExp && e < focus {
				probs[i] = math.Ldexp(p, e-focus)
			}
		}
	}
	return probs
}

// splitmixGolden is xrand's SplitMix64 increment.
const splitmixGolden = 0x9e3779b97f4a7c15

// inverse64 is the multiplicative inverse of odd a modulo 2^64 (Newton).
func inverse64(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// unmix inverts SplitMix64's output function.
func unmix(z uint64) uint64 {
	z ^= z>>31 ^ z>>62
	z *= inverse64(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inverse64(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z
}

// streamWithDraw returns a stream whose draw k (counting from 0) is z.
func streamWithDraw(z uint64, k int) xrand.Source {
	return *xrand.New(unmix(z) - uint64(k+1)*splitmixGolden)
}

// TestStreamWithDraw pins the crafted streams to xrand itself.
func TestStreamWithDraw(t *testing.T) {
	rng := xrand.New(5)
	for i := 0; i < 1000; i++ {
		z, k := rng.Uint64(), rng.Intn(40)
		s := streamWithDraw(z, k)
		for d := 0; d < k; d++ {
			s.Uint64()
		}
		if got := s.Uint64(); got != z {
			t.Fatalf("draw %d of the crafted stream is %#x, want %#x", k, got, z)
		}
	}
}

// boundaryDraws returns the last 53-bit draw on which Float64() < p holds
// and the first on which it fails, derived from p alone.
func boundaryDraws(p float64) (pass, fail uint64) {
	fail = uint64(math.Ceil(math.Ldexp(p, 53)))
	return fail - 1, fail
}

// twinStreams returns the streams a sampler pair is compared on: trial
// streams as the engine splits them, plus streams crafted to put a
// decisive draw exactly on a rounding boundary — a dense cable's last
// passing and first failing draw, the first bucket's skip draw on both
// sides of every table breakpoint short enough to land inside the bucket,
// and the thinning draw of the bucket's first cable on both sides of its
// threshold.
func twinStreams(sp *samplerProgram, probs []float64, seed uint64) []xrand.Source {
	rng := xrand.New(seed ^ 0x7477696e)
	var out []xrand.Source
	for trial := uint64(0); trial < 24; trial++ {
		out = append(out, rng.SplitAt(trial))
	}
	low := func() uint64 { return rng.Uint64() & (1<<11 - 1) }
	dense := denseCables(sp)
	for n := 0; n < 8 && len(dense) > 0; n++ {
		k := rng.Intn(len(dense))
		pass, fail := boundaryDraws(probs[dense[k]])
		out = append(out, streamWithDraw(pass<<11|low(), k), streamWithDraw(fail<<11|low(), k))
	}
	if len(sp.groups) == 0 {
		return out
	}
	g, d := &sp.groups[0], len(dense)
	if tab := g.skips; tab != nil {
		for j := 1; j <= min(tab.n, g.end-g.start); j++ {
			b := tab.bps[tab.n-j]
			out = append(out, streamWithDraw((b-1)<<11|low(), d), streamWithDraw(b<<11|low(), d))
		}
	}
	// The group's breakpoint: the last first draw that ends it at once
	// and the first two that enter it.
	for _, m := range []uint64{g.first - 1, g.first, g.first + 1} {
		if m < 1<<53 {
			out = append(out, streamWithDraw(m<<11|low(), d))
		}
	}
	// Thinning: search the dropped low bits of the crafted draw for a
	// stream whose skip draw lands on the bucket's first cable.
	pr := probs[sp.groupCables[g.start]]
	e := envExp(g.pmax)
	pass, fail := boundaryDraws(math.Ldexp(pr, e))
	for _, m := range []uint64{pass, fail} {
		if m >= 1<<53 {
			continue // a certain cable: no thinning draw to place
		}
		for lowBits := uint64(0); lowBits < 1<<11; lowBits++ {
			s := streamWithDraw(m<<11|lowBits, d+1)
			probe := s
			for i := 0; i < d; i++ {
				probe.Uint64()
			}
			if u := probe.Uint64() >> 11; u != 0 && skipOfDraw(u, g.invLogq) == 0 {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// denseCables lists the program's dense cables in draw order.
func denseCables(sp *samplerProgram) []int {
	var out []int
	for _, w := range sp.denseWords {
		for m := w.Mask; m != 0; m &= m - 1 {
			out = append(out, int(w.Word)<<6+bits.TrailingZeros64(m))
		}
	}
	return out
}

// sameAsFloat compares Plan.SampleInto against the float sampler
// SampleIntoU run on the same stream: realisation and final stream state.
func sameAsFloat(t *testing.T, plan *Plan, streams []xrand.Source) {
	t.Helper()
	a, b := plan.NewDead(), plan.NewDead()
	for si, s := range streams {
		ra, rb := s, s
		plan.SampleInto(a, &ra)
		plan.SampleIntoU(b, &rb)
		if !bitsetEq(a, b) {
			t.Fatalf("stream %d: SampleInto realisation differs from SampleIntoU", si)
		}
		if ra != rb {
			t.Fatalf("stream %d: SampleInto consumed different draws than SampleIntoU", si)
		}
	}
}

// sameAsFloatTilted is sameAsFloat for a tilted sampler, weights included.
func sameAsFloatTilted(t *testing.T, ts *TiltedSampler, streams []xrand.Source) {
	t.Helper()
	a, b := ts.Plan().NewDead(), ts.Plan().NewDead()
	for si, s := range streams {
		ra, rb := s, s
		wa := ts.SampleInto(a, &ra)
		wb := ts.SampleIntoU(b, &rb)
		//gicnet:allow floatcmp both paths price the same realisation through LogWeight
		if !bitsetEq(a, b) || wa != wb {
			t.Fatalf("stream %d: tilted SampleInto differs from SampleIntoU (weights %v, %v)", si, wa, wb)
		}
		if ra != rb {
			t.Fatalf("stream %d: tilted SampleInto consumed different draws than SampleIntoU", si)
		}
	}
}

// prefixCases returns raw-draw prefixes for a program: for each sparse
// group, prefixes whose dense draws are random, whose earlier groups each
// end on their first draw (one below the breakpoint) and whose draw for
// the group's first is one below its breakpoint, on it or one above,
// followed by a few random draws; and random prefixes of up to 40 draws,
// half with Sobol-like zero low 32 bits.
func prefixCases(sp *samplerProgram, seed uint64) [][]uint64 {
	rng := xrand.New(seed ^ 0x70726566)
	var out [][]uint64
	dense := sp.denseLen()
	for gi := range sp.groups {
		for _, delta := range []int64{-1, 0, 1} {
			var prefix []uint64
			for k := 0; k < dense; k++ {
				prefix = append(prefix, rng.Uint64())
			}
			for _, g := range sp.groups[:gi] {
				prefix = append(prefix, (g.first-1)<<11|rng.Uint64()&(1<<11-1))
			}
			m := uint64(int64(sp.groups[gi].first) + delta)
			if m >= 1<<53 {
				m = 1<<53 - 1
			}
			prefix = append(prefix, m<<11|rng.Uint64()&(1<<11-1))
			for k := rng.Intn(8); k > 0; k-- {
				prefix = append(prefix, rng.Uint64())
			}
			out = append(out, prefix)
		}
	}
	for n := 0; n < 8; n++ {
		prefix := make([]uint64, rng.Intn(41))
		for k := range prefix {
			prefix[k] = rng.Uint64()
			if n%2 == 0 {
				prefix[k] &^= 1<<32 - 1
			}
		}
		out = append(out, prefix)
	}
	return out
}

// samePrefixAsFloat compares TiltedSampler.SampleIntoPrefix against the
// float reference on the same draws: each prefix followed by a split
// stream, read as Float64 reads raw draws. Realisation, weight and the
// stream's final state must agree.
func samePrefixAsFloat(t *testing.T, ts *TiltedSampler, prefixes [][]uint64, seed uint64) {
	t.Helper()
	root := xrand.New(seed ^ 0x68656164)
	a, b := ts.Plan().NewDead(), ts.Plan().NewDead()
	for pi, prefix := range prefixes {
		ra := root.SplitAt(uint64(pi))
		ps := prefixStream{prefix: prefix, src: ra}
		wa := ts.SampleIntoPrefix(a, prefix, &ra)
		wb := ts.SampleIntoU(b, &ps)
		//gicnet:allow floatcmp both paths price the same realisation through LogWeight
		if !bitsetEq(a, b) || wa != wb {
			t.Fatalf("prefix %d (%d draws): SampleIntoPrefix differs from the float reference (weights %v, %v)",
				pi, len(prefix), wa, wb)
		}
		if ra != ps.src {
			t.Fatalf("prefix %d (%d draws): SampleIntoPrefix left the stream elsewhere than the float reference", pi, len(prefix))
		}
	}
}

// FuzzSampleThresholds holds the integer sampler to the float one. On
// random probability vectors seeded with the rounding edges (exact powers
// of two and one ulp either side, 1-2^-53, the tilt clamps, subnormals),
// Plan.SampleInto and TiltedSampler.SampleInto must produce the
// realisation SampleIntoU produces on the same xrand stream, leave the
// stream in the same state, and compile to programs whose every threshold
// and breakpoint Validate accepts; streams put draws on both sides of
// each group's breakpoint, and SampleIntoPrefix is held to the reference
// on raw-draw prefixes followed by a stream.
func FuzzSampleThresholds(f *testing.F) {
	// One vector per tabulated envelope, large enough that the bucket
	// reaches every breakpoint of 2^-2 to 2^-4 and most of 2^-5, then the
	// edges and clamps at a spread of sizes and tilts.
	for focus := 0; focus <= maxTableExp-minSparseExp; focus++ {
		f.Add(uint64(focus), 2000, focus, 0.25, 1.0)
	}
	f.Add(uint64(1859), 200, 9, 1-0x1p-53, 3.0)
	f.Add(uint64(7), 400, 11, 5e-324, 1e9)
	f.Add(uint64(42), 120, 1, math.Nextafter(0.125, 0), 1e-9)
	f.Add(uint64(99), 300, 6, 0x1p-8, 0.5)
	f.Add(uint64(2024), 16, 3, math.Nextafter(0x1p-5, 1), 40.0)
	f.Fuzz(func(t *testing.T, seed uint64, n, focus int, extra, lambda float64) {
		probs := thresholdVector(seed, n, focus, extra)
		plan, err := compileProbs(probsNetwork(len(probs)), probs)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("plan: %v", err)
		}
		sameAsFloat(t, plan, twinStreams(&plan.prog, plan.deathProb, seed))
		own, err := NewTiltedSampler(plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		samePrefixAsFloat(t, own, prefixCases(&own.prog, seed), seed)

		if !(lambda > 0) || lambda > 1e12 {
			lambda = 1
		}
		ts, err := NewTiltedSampler(plan, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if err := ts.Validate(); err != nil {
			t.Fatalf("tilted sampler: %v", err)
		}
		sameAsFloatTilted(t, ts, twinStreams(&ts.prog, ts.qProb, seed+1))
		samePrefixAsFloat(t, ts, prefixCases(&ts.prog, seed+1), seed+1)
	})
}

// TestGroupBreakpoints checks firstBreakpoint for every envelope from
// 2^-2 to 2^-64 and every group length up to 4,200 (past the longest
// finite skip of every tabulated envelope and the submarine and ITU
// groups' sizes): B = firstBreakpoint(e, L) satisfies K(B-1) >= L > K(B),
// so a first draw below B is exactly one whose skip passes the group's
// last cable.
func TestGroupBreakpoints(t *testing.T) {
	for e := minSparseExp; e <= maxSparseExp; e++ {
		_, invLogq := envelope(e)
		for length := 1; length <= 4200; length++ {
			b := firstBreakpoint(e, length)
			if !breakpointHolds(b, invLogq, length) {
				t.Fatalf("envelope 2^-%d, %d cables: breakpoint %d, skips K(B-1) = %v and K(B) = %v",
					e, length, b, skipOf(float64(b-1)/(1<<53), invLogq), skipOf(float64(b)/(1<<53), invLogq))
			}
		}
	}
}

// TestValidateChecksBreakpoints moves a group's breakpoint one draw
// either way and requires Validate to notice.
func TestValidateChecksBreakpoints(t *testing.T) {
	probs := make([]float64, 40)
	for i := range probs {
		probs[i] = 0.003 + 1e-5*float64(i) // envelope 2^-8
	}
	plan, err := compileProbs(probsNetwork(len(probs)), probs)
	if err != nil {
		t.Fatal(err)
	}
	g := &plan.prog.groups[0]
	saved := g.first
	for _, b := range []uint64{saved - 1, saved + 1} {
		g.first = b
		if plan.Validate() == nil {
			t.Errorf("Validate accepted breakpoint %d (compiled %d)", b, saved)
		}
	}
	g.first = saved
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateChecksThresholds tampers with each kind of stored threshold
// and requires Validate to notice: a dense threshold one draw low (a
// floor where a ceiling belongs), a thinning threshold one draw low, and
// a draw-free certain thinning on a cable below its envelope.
func TestValidateChecksThresholds(t *testing.T) {
	probs := make([]float64, 40)
	for i := range probs {
		probs[i] = 0.003 + 1e-5*float64(i) // envelope 2^-8, off the draw grid
	}
	probs[0], probs[1] = 0.3, 0.7 // dense
	probs[2] = 0x1p-8             // exactly the envelope: certain thinning
	plan, err := compileProbs(probsNetwork(len(probs)), probs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	sp := &plan.prog
	tamper := func(name string, slot *uint64, v uint64) {
		t.Helper()
		saved := *slot
		*slot = v
		if plan.Validate() == nil {
			t.Errorf("%s: Validate accepted threshold %#x (compiled %#x)", name, v, saved)
		}
		*slot = saved
	}
	tamper("dense floor", &sp.denseThr[0], sp.denseThr[0]-1<<11)
	tamper("dense next", &sp.denseThr[1], sp.denseThr[1]+1<<11)
	var certainK, thinK = -1, -1
	for k := sp.groups[0].start; k < sp.groups[0].end; k++ {
		if sp.groupThr[k] == certain {
			certainK = k
		} else if thinK < 0 {
			thinK = k
		}
	}
	if certainK < 0 || thinK < 0 {
		t.Fatalf("bucket lacks a certain (%d) or a thinned (%d) cable", certainK, thinK)
	}
	tamper("thinning floor", &sp.groupThr[thinK], sp.groupThr[thinK]-1<<11)
	tamper("thinning certain", &sp.groupThr[thinK], certain)
	tamper("certain drawn", &sp.groupThr[certainK], 1<<63)
}
