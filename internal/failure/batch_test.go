package failure

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// batchModels covers every sampling-program shape: pure sparse, mixed,
// high-probability dense, certain death, and a per-cable mix that includes
// immortal (p=0) and certain (p=1) cables so vulnerable-node prefiltering
// is exercised.
func batchModels() []Model {
	return []Model{
		Uniform{P: 0.001},
		Uniform{P: 0.01},
		Uniform{P: 0.1},
		Uniform{P: 0.5},
		Uniform{P: 1},
		Func{Label: "mixed", F: func(_ *topology.Network, ci int) float64 {
			switch ci % 4 {
			case 0:
				return 0 // immortal: its endpoints leave vulnNodes
			case 1:
				return 1 // certain: baseDead template
			case 2:
				return 0.3 // dense Bernoulli
			default:
				return 0.02 // sparse bucket
			}
		}},
	}
}

// TestBatchMatchesScalar is the determinism contract test: for every model
// shape and trial-count/block-boundary combination, SampleBatch must
// reproduce the scalar loop's per-trial masks bit for bit and EvaluateBatch
// must reproduce Evaluate's outcomes exactly (including the float
// divisions), regardless of where block boundaries fall.
func TestBatchMatchesScalar(t *testing.T) {
	nets := []*topology.Network{
		fuzzNetwork(3, 32, 48),
		fuzzNetwork(99, 20, 40),
		fuzzNetwork(7, 2, 0), // no cables at all
	}
	trialCounts := []int{1, 3, 10, 63, 64, 65, 130}
	for neti, net := range nets {
		for _, model := range batchModels() {
			plan, err := Compile(net, model, 150)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Validate(); err != nil {
				t.Fatal(err)
			}
			var scratch BatchScratch
			scratch.Grow(plan)
			dead := plan.NewDead()
			out := make([]Outcome, MaxBatch)
			for _, trials := range trialCounts {
				root := *xrand.New(uint64(neti)*1000 + 42)
				// Scalar reference: the exact per-trial loop sim runs.
				want := make([]Outcome, trials)
				masks := make([][]uint64, trials)
				for ti := 0; ti < trials; ti++ {
					rng := root.SplitAt(uint64(ti))
					plan.SampleInto(dead, &rng)
					masks[ti] = append([]uint64(nil), dead...)
					want[ti] = plan.Evaluate(dead)
				}
				for t0 := 0; t0 < trials; t0 += MaxBatch {
					n := trials - t0
					if n > MaxBatch {
						n = MaxBatch
					}
					plan.SampleBatch(&scratch, &root, uint64(t0), n)
					for b := 0; b < n; b++ {
						row := scratch.Row(b)
						for wi := range row {
							if row[wi] != masks[t0+b][wi] {
								t.Fatalf("net %d model %s trial %d: batched mask differs from scalar at word %d",
									neti, plan.ModelName(), t0+b, wi)
							}
						}
					}
					plan.EvaluateBatch(&scratch, n, out)
					for b := 0; b < n; b++ {
						if out[b] != want[t0+b] {
							t.Fatalf("net %d model %s trial %d: batched outcome %+v != scalar %+v",
								neti, plan.ModelName(), t0+b, out[b], want[t0+b])
						}
					}
				}
			}
		}
	}
}

// TestBatchStrategiesAgree forces BOTH evaluation strategies on the same
// blocks — bypassing the density heuristic — and requires identical
// unreachable counts, so the column path's correctness never hides behind
// the strategy switch.
func TestBatchStrategiesAgree(t *testing.T) {
	net := fuzzNetwork(11, 32, 48)
	for _, model := range batchModels() {
		plan, err := Compile(net, model, 150)
		if err != nil {
			t.Fatal(err)
		}
		var scratch BatchScratch
		scratch.Grow(plan)
		for _, n := range []int{1, 17, 64} {
			root := *xrand.New(777)
			plan.SampleBatch(&scratch, &root, 0, n)
			colOut := make([]Outcome, n)
			scalOut := make([]Outcome, n)
			plan.unreachableColumns(&scratch, n, colOut)
			for b := 0; b < n; b++ {
				scalOut[b].NodesUnreachable = plan.unreachableScalar(scratch.Row(b))
			}
			for b := 0; b < n; b++ {
				if colOut[b].NodesUnreachable != scalOut[b].NodesUnreachable {
					t.Fatalf("model %s n=%d trial %d: columns=%d scalar=%d unreachable",
						plan.ModelName(), n, b, colOut[b].NodesUnreachable, scalOut[b].NodesUnreachable)
				}
			}
		}
	}
}

// TestBatchPartialBlockIgnoresStaleRows poisons the scratch rows past n
// with all-ones garbage and checks that evaluating a partial block neither
// reads them into the outcomes nor corrupts the column path.
func TestBatchPartialBlockIgnoresStaleRows(t *testing.T) {
	net := fuzzNetwork(5, 24, 40)
	plan, err := Compile(net, Uniform{P: 0.2}, 150)
	if err != nil {
		t.Fatal(err)
	}
	var scratch BatchScratch
	scratch.Grow(plan)
	const n = 5
	root := *xrand.New(31)
	plan.SampleBatch(&scratch, &root, 0, n)
	want := make([]Outcome, n)
	for b := 0; b < n; b++ {
		want[b] = plan.Evaluate(scratch.Row(b))
	}
	for b := n; b < MaxBatch; b++ {
		row := scratch.Row(b)
		for wi := range row {
			row[wi] = ^uint64(0)
		}
	}
	got := make([]Outcome, n)
	plan.EvaluateBatch(&scratch, n, got)
	colGot := make([]Outcome, n)
	plan.unreachableColumns(&scratch, n, colGot)
	for b := 0; b < n; b++ {
		if got[b] != want[b] {
			t.Fatalf("trial %d: outcome %+v != %+v with poisoned stale rows", b, got[b], want[b])
		}
		if colGot[b].NodesUnreachable != want[b].NodesUnreachable {
			t.Fatalf("trial %d: column path counted %d unreachable, want %d",
				b, colGot[b].NodesUnreachable, want[b].NodesUnreachable)
		}
	}
}

// TestBatchScratchReuse compiles plans of different sizes through one
// scratch, ensuring Grow resizes correctly in both directions.
func TestBatchScratchReuse(t *testing.T) {
	var scratch BatchScratch
	for _, cables := range []int{48, 4, 30} {
		net := fuzzNetwork(uint64(cables), 16, cables)
		plan, err := Compile(net, Uniform{P: 0.3}, 150)
		if err != nil {
			t.Fatal(err)
		}
		scratch.Grow(plan)
		root := *xrand.New(9)
		plan.SampleBatch(&scratch, &root, 0, MaxBatch)
		out := make([]Outcome, MaxBatch)
		plan.EvaluateBatch(&scratch, MaxBatch, out)
		for b := 0; b < MaxBatch; b++ {
			rng := root.SplitAt(uint64(b))
			dead := plan.NewDead()
			plan.SampleInto(dead, &rng)
			if want := plan.Evaluate(dead); out[b] != want {
				t.Fatalf("cables=%d trial %d: %+v != %+v", cables, b, out[b], want)
			}
		}
	}
}

// starNetwork is a hub with an immortal cable (length 0, so no repeaters)
// and leaves leaf nodes, each on its own cable to the hub: the leaves are
// the only vulnerable nodes, all of degree 1, and killing cables [0, k)
// strands exactly k of them.
func starNetwork(leaves int) *topology.Network {
	net := &topology.Network{Name: "star"}
	net.Nodes = append(net.Nodes, topology.Node{Name: "hub"}, topology.Node{Name: "hub2"})
	for i := 0; i < leaves; i++ {
		net.Nodes = append(net.Nodes, topology.Node{Name: fmt.Sprintf("leaf%d", i)})
		net.Cables = append(net.Cables, topology.Cable{Name: fmt.Sprintf("c%d", i), KnownLength: true,
			Segments: []topology.Segment{{A: 0, B: 2 + i, LengthKm: 1000}}})
	}
	net.Cables = append(net.Cables, topology.Cable{Name: "immortal", KnownLength: true,
		Segments: []topology.Segment{{A: 0, B: 1, LengthKm: 0}}})
	return net
}

// TestColumnCountersMatchScalar forces the column strategy, whose counts
// are bit-sliced through a carry-save tree, on blocks chosen to stress it,
// and holds every count to the scalar walk:
//   - ITU blocks at p=1 and p=0.5 (50 km), where thousands of nodes die per
//     trial and the p=1 counts reach the top plane bits.Len(len(vulnNodes))
//     needs;
//   - partial blocks, whose absent trials must neither be counted nor
//     written even when their stale rows are all dead;
//   - intertubes blocks, whose vulnerable nodes reach degree 10 (the
//     high-degree bucket);
//   - a star of 70 leaves whose trial b kills cables [0, b), so trial b
//     strands exactly b nodes: the counts step through 15, 16 and 17, and
//     the sixteens carry leaves an all-ones low nibble.
//
// Across the cases, buckets and node lists whose sizes are not multiples of
// 16 pad the last carry-save group, and one scratch serves every case, the
// largest plan first, so the padding of each later group starts out
// holding an earlier block's death masks. Each case also checks the strategy
// choice on both sides of its break-even, and that EvaluateBatch, whichever
// strategy it picks, gives Evaluate's outcomes.
func TestColumnCountersMatchScalar(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	prefixRows := func(s *BatchScratch, n int) {
		for b := 0; b < n; b++ {
			row := s.Row(b)
			row.Clear()
			row.SetRange(0, b)
		}
	}
	cases := []struct {
		name     string
		net      *topology.Network
		model    Model
		spacing  float64
		n        int
		topPlane bool                         // some trial's count must reach the top plane
		rows     func(s *BatchScratch, n int) // nil: sample the block
	}{
		{"itu p=1", w.ITU, Uniform{P: 1}, 50, MaxBatch, true, nil},
		{"itu p=1 partial", w.ITU, Uniform{P: 1}, 50, 37, true, nil},
		{"itu p=0.5", w.ITU, Uniform{P: 0.5}, 50, MaxBatch, false, nil},
		{"submarine S1 partial", w.Submarine, S1(), 150, 5, false, nil},
		{"intertubes p=0.2", w.Intertubes, Uniform{P: 0.2}, 100, MaxBatch, false, nil},
		{"intertubes p=0.05 partial", w.Intertubes, Uniform{P: 0.05}, 100, 50, false, nil},
		{"intertubes p=1", w.Intertubes, Uniform{P: 1}, 100, MaxBatch, true, nil},
		{"star prefixes", starNetwork(70), Uniform{P: 0.5}, 150, MaxBatch, false, prefixRows},
	}
	const sentinel = -7
	var sawHighDegree, sawUnevenGroup, sawSixteen bool
	var scratch BatchScratch
	for _, c := range cases {
		plan, err := Compile(c.net, c.model, c.spacing)
		if err != nil {
			t.Fatal(err)
		}
		vc := &plan.vulnCables
		sawHighDegree = sawHighDegree || len(vc.hiStart) > 1
		sawUnevenGroup = sawUnevenGroup || len(plan.vulnNodes)%16 != 0 || len(vc.deg1)%16 != 0
		scratch.Grow(plan)
		for b := 0; b < MaxBatch; b++ {
			row := scratch.Row(b)
			for wi := range row {
				row[wi] = ^uint64(0) // stale rows past n: every cable dead
			}
		}
		if c.rows != nil {
			c.rows(&scratch, c.n)
		} else {
			root := *xrand.New(1859)
			plan.SampleBatch(&scratch, &root, 0, c.n)
		}
		out := make([]Outcome, MaxBatch)
		for b := range out {
			out[b].NodesUnreachable = sentinel
		}
		plan.unreachableColumns(&scratch, c.n, out)
		top := 0
		for b := 0; b < c.n; b++ {
			want := plan.unreachableScalar(scratch.Row(b))
			if out[b].NodesUnreachable != want {
				t.Fatalf("%s trial %d: columns counted %d unreachable, scalar %d", c.name, b, out[b].NodesUnreachable, want)
			}
			top = max(top, want)
			sawSixteen = sawSixteen || want == 16
		}
		for b := c.n; b < MaxBatch; b++ {
			if out[b].NodesUnreachable != sentinel {
				t.Fatalf("%s: absent trial %d written (%d)", c.name, b, out[b].NodesUnreachable)
			}
		}
		if planes := bits.Len(uint(len(plan.vulnNodes))); c.topPlane && top < 1<<(planes-1) {
			t.Fatalf("%s: largest count %d never reaches plane %d of %d", c.name, top, planes-1, planes)
		}

		words := scratch.words
		even := words + len(plan.vulnNodes)/16
		if plan.columnsPay(even-1, words) || !plan.columnsPay(even, words) {
			t.Fatalf("%s: the column path must start at %d dead cables per block", c.name, even)
		}
		plan.EvaluateBatch(&scratch, c.n, out)
		for b := 0; b < c.n; b++ {
			if want := plan.Evaluate(scratch.Row(b)); out[b] != want {
				t.Fatalf("%s trial %d: EvaluateBatch gave %+v, Evaluate %+v", c.name, b, out[b], want)
			}
		}
	}
	if !sawHighDegree || !sawUnevenGroup || !sawSixteen {
		t.Fatalf("cases missed a shape: high-degree bucket %v, padded group %v, a count of 16 %v",
			sawHighDegree, sawUnevenGroup, sawSixteen)
	}
}

// TestPlanValidateCatchesBucketDamage corrupts the cable buckets of a plan
// whose vulnerable nodes fill every bucket (intertubes, S1, 150 km) — an
// entry dropped, duplicated or changed in each — and requires Validate to
// refuse every one.
func TestPlanValidateCatchesBucketDamage(t *testing.T) {
	w, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(w.Intertubes, S1(), 150)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	good := plan.vulnCables
	if len(good.deg1) == 0 || len(good.deg2) == 0 || len(good.deg3) == 0 || len(good.hiStart) < 3 {
		t.Fatalf("intertubes S1 buckets do not cover every degree: %+v", good)
	}
	clone := func() cableBuckets {
		return cableBuckets{
			deg1: slices.Clone(good.deg1), deg2: slices.Clone(good.deg2), deg3: slices.Clone(good.deg3),
			hiStart: slices.Clone(good.hiStart), hiCables: slices.Clone(good.hiCables),
		}
	}
	lastHi := func(b *cableBuckets) []int32 {
		return b.hiCables[b.hiStart[len(b.hiStart)-2]:]
	}
	damage := []struct {
		name string
		f    func(b *cableBuckets)
	}{
		{"degree-1 entry dropped", func(b *cableBuckets) { b.deg1 = b.deg1[1:] }},
		{"degree-1 entry duplicated", func(b *cableBuckets) { b.deg1 = append(b.deg1, b.deg1[len(b.deg1)-1]) }},
		{"degree-2 entry dropped", func(b *cableBuckets) { b.deg2 = b.deg2[:len(b.deg2)-2] }},
		{"degree-2 entry duplicated", func(b *cableBuckets) { b.deg2 = append(b.deg2, b.deg2[:2]...) }},
		{"degree-3 entry dropped", func(b *cableBuckets) { b.deg3 = b.deg3[3:] }},
		{"degree-3 entry duplicated", func(b *cableBuckets) { b.deg3 = append(b.deg3, b.deg3[len(b.deg3)-3:]...) }},
		{"high-degree node dropped", func(b *cableBuckets) {
			b.hiCables = b.hiCables[:len(b.hiCables)-len(lastHi(b))]
			b.hiStart = b.hiStart[:len(b.hiStart)-1]
		}},
		{"high-degree node duplicated", func(b *cableBuckets) {
			b.hiCables = append(b.hiCables, lastHi(b)...)
			b.hiStart = append(b.hiStart, int32(len(b.hiCables)))
		}},
		{"a cable changed", func(b *cableBuckets) { b.deg2[1]++ }},
		{"a node's cables out of order", func(b *cableBuckets) { b.deg3[0], b.deg3[1] = b.deg3[1], b.deg3[0] }},
	}
	for _, d := range damage {
		plan.vulnCables = clone()
		d.f(&plan.vulnCables)
		if err := plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the damaged buckets", d.name)
		}
	}
	plan.vulnCables = good
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}
