package core

import (
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/trace"
)

// FrontEndOracle holds precomputed per-instruction front-end annotations
// for one materialized single-stream trace: the branch predictor outcome
// of every branch and the L1I lookup result of every line crossing. Both
// are pure functions of the instruction sequence and the front-end
// configuration — the predictor trains on the committed path (this is a
// trace-driven model with no wrong-path fetch) and the L1I is touched by
// instruction fetch alone — so one oracle walk serves every machine that
// shares the trace, the predictor configuration and the L1I geometry,
// regardless of how the back ends differ. What is NOT precomputed is the
// L1I miss *fill* latency: that depends on the shared L2, whose state
// each machine's data side perturbs differently, so fills stay per
// machine (Hierarchy.InstRefill).
//
// Oracles only apply to stream 0 of a single-stream machine (address
// offset zero): with multiple streams the shared L1I interleaves
// timing-dependently and the annotations would not be pure.
type FrontEndOracle struct {
	flags []uint8
}

const (
	// oracleLookup: fetching this instruction crosses an I-cache line and
	// performs an L1I lookup.
	oracleLookup uint8 = 1 << iota
	// oracleMiss: ... and that lookup misses (set only with oracleLookup).
	oracleMiss
	// oracleMispredict: this branch is mispredicted.
	oracleMispredict
)

// Len returns the number of annotated instructions.
func (o *FrontEndOracle) Len() int { return len(o.flags) }

// Prefix returns an oracle over the first n instructions (annotations are
// prefix-stable: the walk is sequential, so the first n entries are the
// same whatever the build length). It panics if n exceeds the built
// length.
func (o *FrontEndOracle) Prefix(n int) *FrontEndOracle {
	return &FrontEndOracle{flags: o.flags[:n]}
}

// BuildFrontEndOracle walks the materialized trace once through a fresh
// branch predictor and a fresh L1I timing model, recording
// per-instruction annotations. It replicates the fetch stage's front-end
// exactly: an L1I lookup happens on every line crossing (and
// unconditionally for the first instruction), and the predictor trains on
// every branch in trace order.
func BuildFrontEndOracle(v trace.View, bp bpred.Config, l1i cache.Config) *FrontEndOracle {
	pred := bpred.New(bp)
	ic := cache.New(l1i)
	shift := uint(bits.TrailingZeros64(uint64(l1i.LineBytes)))
	flags := make([]uint8, v.Len())
	haveLine := false
	var lastLine uint64
	replay := v.Replay()
	for i := range flags {
		in, _ := replay.NextRec()
		f := uint8(0)
		line := in.PC >> shift
		if !haveLine || line != lastLine {
			hit, _, _ := ic.Access(in.PC, false)
			f |= oracleLookup
			if !hit {
				f |= oracleMiss
			}
			lastLine = line
			haveLine = true
		}
		if in.Class.IsBranch() {
			if pred.Update(in.PC, in.Taken(), in.Addr) {
				f |= oracleMispredict
			}
		}
		flags[i] = f
	}
	return &FrontEndOracle{flags: flags}
}

// SetFrontEndOracle installs precomputed front-end annotations for the
// machine's single materialized stream, replacing the per-machine branch
// predictor and L1I lookups on the fetch path with annotation reads (the
// simulated timing is bit-identical; see FrontEndOracle). It must be
// called after Reset and before the first Step. It returns false — and
// leaves the machine running its own front end — when the machine shape
// does not support the oracle (multiple streams, a non-materialized
// stream, or an annotation count shorter than the trace).
func (m *Machine) SetFrontEndOracle(o *FrontEndOracle) bool {
	if o == nil || len(m.fes) != 1 || m.fes[0].replay == nil {
		return false
	}
	if m.now != 0 || len(o.flags) < m.fes[0].replay.Len() {
		return false
	}
	m.oracle = o
	return true
}
