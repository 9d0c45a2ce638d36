package failure

import (
	"math"
	"reflect"
	"testing"

	"gicnet/internal/geo"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

func planNet() *topology.Network {
	nodes := []topology.Node{
		{Name: "a", Coord: geo.Coord{Lat: 65, Lon: 0}, HasCoord: true},
		{Name: "b", Coord: geo.Coord{Lat: 50, Lon: 10}, HasCoord: true},
		{Name: "c", Coord: geo.Coord{Lat: 30, Lon: 20}, HasCoord: true},
		{Name: "d", Coord: geo.Coord{Lat: 10, Lon: 30}, HasCoord: true},
		{Name: "lonely"},
	}
	cables := []topology.Cable{
		{Name: "ab", Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 2000}}, KnownLength: true},
		{Name: "bc", Segments: []topology.Segment{{A: 1, B: 2, LengthKm: 3000}}, KnownLength: true},
		{Name: "cd", Segments: []topology.Segment{{A: 2, B: 3, LengthKm: 800}}, KnownLength: true},
		{Name: "ad", Segments: []topology.Segment{{A: 0, B: 3, LengthKm: 9000}, {A: 3, B: 1, LengthKm: 500}}, KnownLength: true},
		{Name: "short", Segments: []topology.Segment{{A: 2, B: 3, LengthKm: 40}}, KnownLength: true},
	}
	return &topology.Network{Name: "plan-t", Nodes: nodes, Cables: cables}
}

func TestCompileRejectsBadSpacing(t *testing.T) {
	if _, err := Compile(planNet(), Uniform{P: 0.5}, 0); err != ErrBadSpacing {
		t.Fatalf("Compile spacing=0: err=%v, want ErrBadSpacing", err)
	}
}

func TestPlanMatchesCableDeathProb(t *testing.T) {
	n := planNet()
	for _, m := range []Model{Uniform{P: 0.3}, S1(), S2(), S1Path()} {
		plan, err := Compile(n, m, 150)
		if err != nil {
			t.Fatal(err)
		}
		if plan.NumCables() != len(n.Cables) {
			t.Fatalf("NumCables = %d, want %d", plan.NumCables(), len(n.Cables))
		}
		for ci := range n.Cables {
			want, err := CableDeathProb(n, m, 150, ci)
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.DeathProb(ci); got != want {
				t.Errorf("%s cable %d: plan prob %v, CableDeathProb %v", m.Name(), ci, got, want)
			}
			if got, want := plan.RepeaterCount(ci), n.Cables[ci].RepeaterCount(150); got != want {
				t.Errorf("cable %d: plan repeaters %d, want %d", ci, got, want)
			}
		}
	}
}

// TestPlanSamplingMatchesPerTrialPath is the plan-vs-reference half of the
// bit-reproducibility contract: for the same seed, SampleDense must consume
// the RNG draw for draw like the per-cable reference sampler, and Evaluate
// must score the realisation like the reference evaluator.
func TestPlanSamplingMatchesPerTrialPath(t *testing.T) {
	n := planNet()
	for _, m := range []Model{Uniform{P: 0.2}, Uniform{P: 0}, Uniform{P: 1}, S1(), S2()} {
		plan, err := Compile(n, m, 150)
		if err != nil {
			t.Fatal(err)
		}
		dead := plan.NewDead()
		for trial := uint64(0); trial < 200; trial++ {
			root := xrand.New(99)
			rngRef := root.Split(trial)
			want, err := sampleCableDeaths(n, m, 150, rngRef)
			if err != nil {
				t.Fatal(err)
			}
			rng := root.SplitAt(trial)
			plan.SampleDense(dead, &rng)
			if !reflect.DeepEqual(dead, want) {
				t.Fatalf("%s trial %d: plan sample %v, reference %v", m.Name(), trial, dead, want)
			}
			if got, want := plan.Evaluate(dead), referenceEvaluate(n, want); got != want {
				t.Fatalf("%s trial %d: plan outcome %+v, reference %+v", m.Name(), trial, got, want)
			}
		}
	}
}

// TestPlanSparseSamplerDistribution checks the geometric-skip sampler's
// marginals against the analytic death probabilities: per-cable death
// frequencies over many trials must land within a generous binomial
// confidence band, and every sparse realisation must evaluate identically
// to the reference evaluator.
func TestPlanSparseSamplerDistribution(t *testing.T) {
	n := planNet()
	const trials = 40000
	for _, m := range []Model{Uniform{P: 0.05}, Uniform{P: 0.001}, S1(), S2()} {
		plan, err := Compile(n, m, 150)
		if err != nil {
			t.Fatal(err)
		}
		dead := plan.NewDead()
		counts := make([]int, plan.NumCables())
		root := xrand.New(1859)
		for trial := uint64(0); trial < trials; trial++ {
			rng := root.SplitAt(trial)
			plan.SampleInto(dead, &rng)
			for ci := range counts {
				if dead.Get(ci) {
					counts[ci]++
				}
			}
			if trial < 64 {
				if got, want := plan.Evaluate(dead), referenceEvaluate(n, dead); got != want {
					t.Fatalf("%s trial %d: plan outcome %+v, reference %+v", m.Name(), trial, got, want)
				}
			}
		}
		for ci := range counts {
			p := plan.DeathProb(ci)
			got := float64(counts[ci]) / trials
			// 6-sigma binomial band, floored so tiny p keeps a real margin.
			tol := 6 * math.Sqrt(p*(1-p)/trials)
			if tol < 0.002 {
				tol = 0.002
			}
			if math.Abs(got-p) > tol {
				t.Errorf("%s cable %d: death freq %v, want %v ± %v", m.Name(), ci, got, p, tol)
			}
		}
	}
}

func TestPlanExpectedCableFrac(t *testing.T) {
	n := planNet()
	plan, err := Compile(n, S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedCableFrac(n, S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ExpectedCableFrac(); got != want {
		t.Errorf("plan ExpectedCableFrac %v, package %v", got, want)
	}
}

func TestPlanMetadata(t *testing.T) {
	n := planNet()
	plan, err := Compile(n, S2(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Network() != n || plan.ModelName() != "S2(low)" || plan.SpacingKm() != 100 {
		t.Errorf("metadata: net=%p name=%q spacing=%v", plan.Network(), plan.ModelName(), plan.SpacingKm())
	}
}

func TestPlanEmptyNetwork(t *testing.T) {
	n := &topology.Network{Name: "empty"}
	plan, err := Compile(n, Uniform{P: 0.5}, 150)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	out := plan.Evaluate(plan.Sample(rng))
	if out != (Outcome{}) {
		t.Errorf("empty network outcome = %+v", out)
	}
	if plan.ExpectedCableFrac() != 0 {
		t.Errorf("empty network expected frac = %v", plan.ExpectedCableFrac())
	}
}

// BenchmarkPlanTrialLoop is the allocation-regression guard for the Monte
// Carlo hot path: sample + evaluate through a compiled plan must be
// allocation-free in steady state.
func BenchmarkPlanTrialLoop(b *testing.B) {
	n := planNet()
	plan, err := Compile(n, S1(), 150)
	if err != nil {
		b.Fatal(err)
	}
	dead := plan.NewDead()
	root := xrand.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := root.SplitAt(uint64(i))
		plan.SampleInto(dead, &rng)
		_ = plan.Evaluate(dead)
	}
}

// TestRecompileMatchesCompile drives one arena plan through the recompiles
// a uniform sweep makes (ten probabilities on one network and spacing,
// where repeater counts and, past p=0, the vulnerable nodes and their
// cable buckets carry over) and then across spacings, networks and at-risk
// sets, where they must not. After every step the arena must equal a
// fresh Compile field by field — probabilities bit for bit, repeater
// counts, template and at-risk bitsets, vulnerable nodes, cable buckets,
// sampling program — and validate.
func TestRecompileMatchesCompile(t *testing.T) {
	netA, netB := fuzzNetwork(3, 32, 48), fuzzNetwork(99, 20, 40)
	mixed := batchModels()[5]
	type step struct {
		net     *topology.Network
		m       Model
		spacing float64
	}
	var steps []step
	for _, p := range []float64{0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 1} {
		steps = append(steps, step{netA, Uniform{P: p}, 150})
	}
	steps = append(steps,
		step{netA, Uniform{P: 0.1}, 50}, // new spacing: new repeater counts
		step{netB, Uniform{P: 0.1}, 50}, // new network at the same spacing
		step{netB, mixed, 50},           // at-risk set shrinks
		step{netA, mixed, 50},           // back to the first network
		step{netA, Uniform{P: 0.2}, 50}, // at-risk set grows back
		step{netA, S1(), 150},           // tiered model, first spacing again
		step{planNet(), S1(), 150},      // a network of another size
		step{netA, Uniform{P: 0.05}, 150},
	)
	var arena Plan
	for i, st := range steps {
		if err := CompileInto(&arena, st.net, st.m, st.spacing); err != nil {
			t.Fatalf("step %d: CompileInto: %v", i, err)
		}
		fresh, err := Compile(st.net, st.m, st.spacing)
		if err != nil {
			t.Fatalf("step %d: Compile: %v", i, err)
		}
		if err := arena.Validate(); err != nil {
			t.Fatalf("step %d: recompiled plan invalid: %v", i, err)
		}
		if len(arena.deathProb) != len(fresh.deathProb) {
			t.Fatalf("step %d: %d probabilities, fresh %d", i, len(arena.deathProb), len(fresh.deathProb))
		}
		for ci := range fresh.deathProb {
			if math.Float64bits(arena.deathProb[ci]) != math.Float64bits(fresh.deathProb[ci]) {
				t.Fatalf("step %d cable %d: probability %v, fresh %v", i, ci, arena.deathProb[ci], fresh.deathProb[ci])
			}
		}
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"repeater counts", arena.repeaters, fresh.repeaters},
			{"template", arena.baseDead, fresh.baseDead},
			{"at-risk set", arena.atRisk, fresh.atRisk},
			{"vulnerable nodes", append([]int32{}, arena.vulnNodes...), append([]int32{}, fresh.vulnNodes...)},
			{"cable buckets", normBuckets(arena.vulnCables), normBuckets(fresh.vulnCables)},
			{"sampling program", normProgram(arena.prog), normProgram(fresh.prog)},
			{"connected count", arena.connected, fresh.connected},
			{"model name", arena.modelName, fresh.modelName},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("step %d (%s, %s, %g km): %s differ from a fresh compile:\n got %v\nwant %v",
					i, st.net.Name, st.m.Name(), st.spacing, c.name, c.got, c.want)
			}
		}
	}
}

// normBuckets copies cable buckets into non-nil slices, for DeepEqual.
func normBuckets(b cableBuckets) cableBuckets {
	return cableBuckets{
		deg1:     append([]int32{}, b.deg1...),
		deg2:     append([]int32{}, b.deg2...),
		deg3:     append([]int32{}, b.deg3...),
		hiStart:  append([]int32{}, b.hiStart...),
		hiCables: append([]int32{}, b.hiCables...),
	}
}

// normProgram copies a program into non-nil slices, so that DeepEqual
// compares contents and not whether a slice was resliced or never made.
func normProgram(sp samplerProgram) samplerProgram {
	return samplerProgram{
		denseWords:  append([]xrand.BelowWord{}, sp.denseWords...),
		denseThr:    append([]uint64{}, sp.denseThr...),
		groups:      append([]sampleGroup{}, sp.groups...),
		groupCables: append([]int32{}, sp.groupCables...),
		groupThr:    append([]uint64{}, sp.groupThr...),
	}
}
