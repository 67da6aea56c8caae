package workload

import (
	"fmt"
	"hash/fnv"

	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// phaseAddrStride separates the address regions of a spec's phases:
// phase k's PCs, branch targets and effective addresses are offset by
// k·2^38. With at most MaxSynthPhases = 8 phases the offsets stay below
// 2^41, well inside the 2^44-byte slot core.Machine gives each stream,
// and far above the extent any single generator's address space can
// reach (working sets cap at 1G, so per-phase extents stay under 2^37).
const phaseAddrStride = uint64(1) << 38

// specSeed folds the canonical spec and the stream seed into the 64-bit
// seed the generators draw from. FNV-1a over the canonical bytes makes
// the value a pure function of (canonical spec, seed): any process on
// any machine derives the same generator state, which is what lets the
// trace cache and the content-addressed result store treat synth specs
// as stable keys.
func specSeed(canon string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(canon))
	s := h.Sum64()
	if seed != 0 {
		// splitmix64 finalizer: spreads small consecutive seeds over the
		// whole state space before mixing.
		z := seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s ^= z ^ (z >> 31)
	}
	return s
}

// synthClass maps the FP share to the suite class the generator shapes
// details around (FP register pressure on loads, store data namespace).
func synthClass(p SynthParams) ProgramClass {
	if p.FP >= 0.5 {
		return ClassFP
	}
	return ClassInt
}

// profileFor maps one phase's parameter set onto a Profile.
// Every derived field is a pure function of the parameters, so equal
// canonical specs produce equal profiles.
func profileFor(p SynthParams, name string, seed uint64) Profile {
	comp := 1 - p.Ld - p.St - p.Bf // ≥ 0.1 by SynthParams.Validate
	intW := comp * (1 - p.FP)
	fpW := comp * p.FP
	mix := map[isa.Class]float64{
		isa.Load:   p.Ld,
		isa.Store:  p.St,
		isa.Branch: p.Bf,
	}
	add := func(c isa.Class, w float64) {
		if w > 0 {
			mix[c] = w
		}
	}
	add(isa.IntALU, intW*0.94)
	add(isa.IntMult, intW*0.05)
	add(isa.IntDiv, intW*0.01)
	add(isa.FPAdd, fpW*0.50)
	add(isa.FPMult, fpW*0.40)
	add(isa.FPDiv, fpW*0.10)

	return Profile{
		Name:  name,
		Class: synthClass(p),
		Mix:   mix,
		// FP codes join recent values more (reduction trees); the join
		// distance scales with the chain distance so raising ilp widens
		// both the chains and the diamonds built on them.
		TwoSrcFrac:    0.42 + 0.13*p.FP,
		ChainDistMean: p.ILP,
		JoinDistMean:  2 * p.ILP,
		ZeroSrcFrac:   0.05,
		LiveInFrac:    0.12,
		// Strided codes are regular array codes: they also address
		// through induction variables.
		AddrLiveInFrac:     0.15 + 0.65*p.Stride,
		Loops:              12,
		BodyMean:           20,
		TripMean:           40,
		UnbiasedBranchFrac: p.Br,
		WorkingSet:         p.WS,
		StrideFrac:         p.Stride,
		Seed:               seed,
	}
}

// phaseParams derives phase k's parameter set from the base. Phase 0 is
// the base exactly; later phases shift the working set, ILP, branch
// behaviour and stride deterministically (seeded by the spec, not by
// wall-clock anything), modelling the program moving between loops with
// different character.
func phaseParams(base SynthParams, k int, baseSeed uint64) SynthParams {
	if k == 0 {
		return base
	}
	r := rng.New(baseSeed + uint64(k)*0x9e3779b97f4a7c15)
	p := base
	p.ILP = clamp(base.ILP*(0.6+0.8*r.Float64()), 0.5, 64)
	p.Br = clamp(base.Br+(r.Float64()-0.5)*0.3, 0, 1)
	p.Stride = clamp(base.Stride+(r.Float64()-0.5)*0.5, 0, 1)
	if r.Bool(0.5) {
		p.WS = min(base.WS<<1, 1<<30)
	} else {
		p.WS = max(base.WS>>1, 1024)
	}
	return p
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// phasedStream cycles through per-phase generators every plen
// instructions. It renumbers Seq monotonically (trace.Validate requires
// strictly increasing Seq across the whole stream) and offsets each
// phase into its own address region so caches and predictors see the
// phase change as real programs deliver it: new PCs, new data.
type phasedStream struct {
	gens []trace.Stream
	plen uint64
	seq  uint64
}

var _ trace.Stream = (*phasedStream)(nil)

func (s *phasedStream) Next() (isa.Inst, error) {
	phase := (s.seq / s.plen) % uint64(len(s.gens))
	in, err := s.gens[phase].Next()
	if err != nil {
		return in, err
	}
	off := phase * phaseAddrStride
	in.PC += off
	if in.Target != 0 {
		in.Target += off
	}
	if in.EffAddr != 0 {
		in.EffAddr += off
	}
	in.Seq = s.seq
	s.seq++
	return in, nil
}

// newSynthStream builds the infinite instruction stream a parameter set
// denotes, under the canonical spec name and stream seed that key it.
func newSynthStream(p SynthParams, canon string, seed uint64) (trace.Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	baseSeed := specSeed(canon, seed)
	if p.Phases == 1 {
		return NewGenerator(profileFor(p, canon, baseSeed))
	}
	gens := make([]trace.Stream, p.Phases)
	for k := 0; k < p.Phases; k++ {
		pp := phaseParams(p, k, baseSeed)
		name := fmt.Sprintf("%s#phase%d", canon, k)
		g, err := NewGenerator(profileFor(pp, name, baseSeed+uint64(k)))
		if err != nil {
			return nil, err
		}
		gens[k] = g
	}
	return &phasedStream{gens: gens, plen: p.PLen}, nil
}
