package workload

import (
	"fmt"

	"repro/internal/rng"
)

// A family denotes a population of workloads rather than one point: the
// family name is itself the canonical spec, and the stream seed selects
// the member by sampling every parameter from the family's
// meta-distributions. "synth-random@1+synth-random@2" is therefore a
// reproducible two-stream mix drawn from the population — the sampling
// unit of the multi-programmed fairness study.
type family struct {
	class  ProgramClass
	sample func(r *rng.Source) SynthParams
}

var families = map[string]family{
	// synth-random spans the whole parameter space, integer and FP codes
	// alike; the suite class of a given member depends on the draw.
	"synth-random": {
		class: ClassMixed,
		sample: func(r *rng.Source) SynthParams {
			p := sampleShared(r)
			p.FP = r.Float64()
			if p.FP >= 0.5 {
				// FP-leaning draws get FP-suite character: longer chains,
				// fewer and more predictable branches, more stride.
				p.ILP = 3 + 9*r.Float64()
				p.Br = 0.02 + 0.12*r.Float64()
				p.Bf = 0.02 + 0.06*r.Float64()
				p.Stride = 0.5 + 0.5*r.Float64()
			}
			return p
		},
	},
	// synth-int samples integer codes: short chains, branchy, irregular.
	"synth-int": {
		class: ClassInt,
		sample: func(r *rng.Source) SynthParams {
			p := sampleShared(r)
			p.FP = 0
			return p
		},
	},
	// synth-fp samples FP kernels: long chains, predictable control,
	// strided working sets.
	"synth-fp": {
		class: ClassFP,
		sample: func(r *rng.Source) SynthParams {
			p := sampleShared(r)
			p.FP = 0.5 + 0.4*r.Float64()
			p.ILP = 3 + 9*r.Float64()
			p.Br = 0.02 + 0.12*r.Float64()
			p.Bf = 0.02 + 0.06*r.Float64()
			p.Stride = 0.5 + 0.5*r.Float64()
			return p
		},
	},
}

// sampleShared draws the integer-code-flavoured baseline every family
// refines: moderate ILP, branchy control, working sets log-uniform over
// 16K..64M, and up to 4 program phases.
func sampleShared(r *rng.Source) SynthParams {
	p := SynthDefaults()
	p.ILP = 1.5 + 5*r.Float64()
	p.Br = 0.1 + 0.3*r.Float64()
	p.Bf = 0.08 + 0.1*r.Float64()
	p.Ld = 0.18 + 0.14*r.Float64()
	p.St = 0.05 + 0.07*r.Float64()
	p.WS = uint64(1) << (14 + r.Intn(13))
	p.Stride = r.Float64()
	p.Phases = 1 + r.Intn(4)
	p.PLen = 20_000
	return p
}

// sampleFamily resolves a family member: the parameter set the name
// denotes under the given stream seed. The sampling PRNG is seeded from
// (family name, seed) exactly like a parameterized spec's generators,
// so members are stable across processes and machines.
func sampleFamily(name string, seed uint64) (SynthParams, error) {
	f, ok := families[name]
	if !ok {
		return SynthParams{}, fmt.Errorf("synth: unknown family %q (have %v)", name, SynthFamilies())
	}
	r := rng.New(specSeed(name, seed) ^ 0xfa311e5)
	p := f.sample(r)
	if err := p.Validate(); err != nil {
		// Meta-distribution ranges are chosen so this cannot trip; guard
		// anyway so a future range edit fails loudly.
		return SynthParams{}, fmt.Errorf("synth: family %s sampled invalid params: %w", name, err)
	}
	return p, nil
}
