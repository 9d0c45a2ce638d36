package failure

import (
	"math"
	"math/bits"

	"gicnet/internal/graph"
	"gicnet/internal/xrand"
)

// Uniforms is a deterministic stream of uniform draws in [0,1). It is the
// seam through which the rare-event layer substitutes scrambled
// quasi-Monte Carlo points for pseudo-random draws; *xrand.Source is the
// canonical pseudo-random implementation. A stream must keep producing
// values forever (trials consume a variable number of draws), and two
// streams built from the same inputs must produce the same values — the
// deterministic-replay contract extends through this interface.
type Uniforms interface {
	Float64() float64
}

// sampleIntoU is the sampling program in float form over probs, the vector
// it was compiled from, against an arbitrary uniform stream: a Bernoulli
// draw is u < p, a skip is floor(log(u)·invLogq), a thinning is
// u·pmax < p. It serves any Uniforms stream, which hands out floats, not
// raw draws. The quasi-Monte Carlo streams of the rare-event layer do lie
// on the 53-bit grid of a pseudo-random draw (a scrambled Sobol
// coordinate is a 32-bit integer times 2⁻³², its padding an xrand draw;
// rare's TestPointStreamOn53BitGrid pins it), so the integer form could
// serve them exactly too; they run this one because the seam is a float
// seam. Run on an xrand stream it is also the reference sampleInto is
// held to: the integer thresholds and skip tables there decide every
// 53-bit draw as these float expressions do (FuzzSampleThresholds,
// TestSkipTablesMatchLog), so a change to the distribution belongs in
// compile, which feeds both forms.
func (sp *samplerProgram) sampleIntoU(dead graph.Bitset, u Uniforms, probs []float64) {
	for _, w := range sp.denseWords {
		for m := w.Mask; m != 0; m &= m - 1 {
			ci := int(w.Word)<<6 + bits.TrailingZeros64(m)
			if u.Float64() < probs[ci] {
				dead.Set(ci)
			}
		}
	}
	for gi := range sp.groups {
		g := &sp.groups[gi]
		cables := sp.groupCables[g.start:g.end]
		i := 0
		for {
			v := u.Float64()
			if v <= 0 {
				break // log(0) = -Inf: the skip overshoots any group
			}
			t := skipOf(v, g.invLogq)
			if t >= float64(len(cables)-i) {
				break
			}
			i += int(t)
			if pr := probs[cables[i]]; pr >= g.pmax || u.Float64()*g.pmax < pr {
				dead.Set(int(cables[i]))
			}
			i++
		}
	}
}

// SampleIntoU is SampleInto drawing its uniforms from u instead of a
// pseudo-random source. With u = an xrand stream it produces exactly the
// realisation SampleInto would from the same stream; with a scrambled
// quasi-Monte Carlo stream it is the plan half of the QMC estimator.
func (p *Plan) SampleIntoU(dead graph.Bitset, u Uniforms) {
	dead.CopyFrom(p.baseDead)
	p.prog.sampleIntoU(dead, u, p.deathProb)
}

// SampleIntoU is TiltedSampler.SampleInto drawing its uniforms from u; it
// returns the trial's log likelihood ratio exactly as SampleInto does.
func (t *TiltedSampler) SampleIntoU(dead graph.Bitset, u Uniforms) float64 {
	dead.CopyFrom(t.plan.baseDead)
	t.prog.sampleIntoU(dead, u, t.qProb)
	return t.LogWeight(dead)
}

// Draws returns a conservative upper bound on how many uniforms one trial
// of the plan's sampling program consumes in expectation: one per dense
// cable plus two per expected sparse-bucket hit plus one terminating draw
// per bucket. QMC streams use it to size the low-discrepancy prefix of a
// trial's draw sequence.
func (p *Plan) Draws() int { return p.prog.expectedDraws(p.deathProb) }

// Draws is Plan.Draws for the tilted program.
func (t *TiltedSampler) Draws() int { return t.prog.expectedDraws(t.qProb) }

func (sp *samplerProgram) expectedDraws(probs []float64) int {
	draws := float64(sp.denseLen() + len(sp.groups))
	for gi := range sp.groups {
		g := &sp.groups[gi]
		for _, ci := range sp.groupCables[g.start:g.end] {
			draws += 2 * probs[ci] / g.pmax
		}
	}
	if draws > 1<<20 {
		return 1 << 20
	}
	return int(math.Ceil(draws))
}

// ensure the canonical implementation satisfies the seam.
var _ Uniforms = (*xrand.Source)(nil)
