package failure

import (
	"math/bits"

	"gicnet/internal/graph"
	"gicnet/internal/topology"
	"gicnet/internal/xrand"
)

// The references the compiled plan is held to: the float form of the
// sampling program, and the per-cable reference, a test copy of
// internal/verify's (this package's internal tests cannot import verify).

// Uniforms is a deterministic stream of uniform draws in [0,1), the float
// reference's source of randomness. *xrand.Source is one; prefixStream
// is a raw-draw prefix followed by one.
type Uniforms interface {
	Float64() float64
}

var _ Uniforms = (*xrand.Source)(nil)

// sampleIntoU is the sampling program in float form over probs, the vector
// it was compiled from, against an arbitrary uniform stream: a Bernoulli
// draw is u < p, a skip is floor(log(u)·invLogq), a thinning is
// u·pmax < p, and every group runs its skip walk with no breakpoint. It
// is the reference sampleInto is held to: on a stream of 53-bit draws
// the integer thresholds, skip tables and group breakpoints must decide
// every draw as these float expressions do, so a change to the
// distribution belongs in compile, which feeds both forms.
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

// SampleIntoU is Plan.SampleInto in float form, drawing from u.
func (p *Plan) SampleIntoU(dead graph.Bitset, u Uniforms) {
	dead.CopyFrom(p.baseDead)
	p.prog.sampleIntoU(dead, u, p.deathProb)
}

// SampleIntoU is TiltedSampler.SampleInto in float form, drawing from u;
// it prices the realisation through LogWeight as SampleInto does.
func (t *TiltedSampler) SampleIntoU(dead graph.Bitset, u Uniforms) float64 {
	dead.CopyFrom(t.plan.baseDead)
	t.prog.sampleIntoU(dead, u, t.qProb)
	return t.LogWeight(dead)
}

// Draws is TiltedSampler.Draws for the plan's own program.
func (p *Plan) Draws() int { return p.prog.expectedDraws(p.deathProb) }

// prefixStream is the float form of SampleIntoPrefix's draw sequence: the
// raw prefix draws as Float64 reads them (top 53 bits times 2^-53), then
// the stream's.
type prefixStream struct {
	prefix []uint64
	src    xrand.Source
}

func (ps *prefixStream) Float64() float64 {
	if len(ps.prefix) != 0 {
		z := ps.prefix[0]
		ps.prefix = ps.prefix[1:]
		return float64(z>>11) / (1 << 53)
	}
	return ps.src.Float64()
}

// sampleCableDeaths draws one realisation with one rng.Bool(CableDeathProb)
// decision per cable, in cable order. Plan.SampleDense must consume the
// stream exactly as it does.
func sampleCableDeaths(net *topology.Network, m Model, spacingKm float64, rng *xrand.Source) (graph.Bitset, error) {
	if err := CheckSpacing(spacingKm); err != nil {
		return nil, err
	}
	dead := graph.NewBitset(len(net.Cables))
	for ci := range net.Cables {
		p, err := CableDeathProb(net, m, spacingKm, ci)
		if err != nil {
			return nil, err
		}
		if rng.Bool(p) {
			dead.Set(ci)
		}
	}
	return dead, nil
}

// referenceEvaluate scores a dead set by counting its cables and the nodes
// topology.UnreachableNodes reports.
func referenceEvaluate(net *topology.Network, dead graph.Bitset) Outcome {
	out := Outcome{CablesFailed: dead.Count(), NodesUnreachable: len(net.UnreachableNodes(dead))}
	if len(net.Cables) > 0 {
		out.CableFrac = float64(out.CablesFailed) / float64(len(net.Cables))
	}
	if n := net.ConnectedNodeCount(); n > 0 {
		out.NodeFrac = float64(out.NodesUnreachable) / float64(n)
	}
	return out
}
