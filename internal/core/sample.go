package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
)

// This file is the machine side of sampled simulation (SMARTS-style
// interval sampling, driven by harness.Execute for a Request with Sampling
// set — see harness.driveSampled): short detailed windows measured with the full
// out-of-order model, separated by functional fast-forward spans that
// retire instructions at decode speed while keeping the long-lived
// microarchitectural state — I/D caches, the hybrid branch predictor, and
// per-stream fetch state — warm, so each window measures steady-state
// behaviour rather than cold-start transients.
//
// The machine alternates between the two modes through two primitives:
// DrainPipeline empties the in-flight window without fetching more, and
// FunctionalAdvance consumes the fast-forward span. Neither is ever
// called on the exact path, which stays bit-identical.

// Covariates are per-instruction signals that the detailed and functional
// execution modes observe identically: branch outcomes against the shared
// predictor and cache access latencies against the shared hierarchy. The
// sampled harness regresses window CPI on them; because their full-run
// totals are known exactly (every consumed instruction updates them, fast-
// forwarded or not), the regression corrects the extrapolated cycle count
// for phase structure the sampled windows under- or over-represent.
// Counted on the exact path too (a handful of integer adds), where they
// are simply never read.
type Covariates struct {
	// Branches and Mispredicts count conditional-branch outcomes as seen
	// by the shared predictor.
	Branches    uint64
	Mispredicts uint64
	// DLat and ILat accumulate data- and instruction-cache access
	// latencies (cycles summed over accesses).
	DLat uint64
	ILat uint64
}

// Sub returns c - o, component-wise.
func (c Covariates) Sub(o Covariates) Covariates {
	return Covariates{
		Branches:    c.Branches - o.Branches,
		Mispredicts: c.Mispredicts - o.Mispredicts,
		DLat:        c.DLat - o.DLat,
		ILat:        c.ILat - o.ILat,
	}
}

// SampleCov returns the cumulative covariate counters since Reset.
func (m *Machine) SampleCov() Covariates { return m.cov }

// DrainPipeline suspends fetch and runs the machine until every in-flight
// instruction has committed, leaving the pipeline empty but all other
// state (caches, predictor, rename map, stream positions, pending fetched
// instructions) intact. It is the boundary between a detailed window and
// the functional span that follows it.
func (m *Machine) DrainPipeline() error {
	m.fetchStop = true
	defer func() { m.fetchStop = false }()
	for m.rob.Len() > 0 || m.fetchQ.Len() > 0 {
		if m.fastForward(0) {
			continue
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// SetFFMix sets the per-stream interleave weights FunctionalAdvance uses
// for multi-programmed machines: streams consume instructions in
// proportion to their weights, matching the commit-rate mixture the
// detailed machine exhibits (ICOUNT equalizes in-flight counts, so the
// faster stream retires — and therefore consumes — proportionally more).
// A nil or short slice, and every zero weight, fall back to 1. The
// weights reset to uniform on machine Reset.
func (m *Machine) SetFFMix(weights []uint64) {
	if cap(m.ffMix) < len(m.fes) {
		m.ffMix = make([]uint64, len(m.fes))
	}
	m.ffMix = m.ffMix[:len(m.fes)]
	for i := range m.ffMix {
		w := uint64(1)
		if i < len(weights) && weights[i] > 0 {
			w = weights[i]
		}
		m.ffMix[i] = w
	}
}

// FunctionalAdvance consumes up to n instructions from the machine's
// streams without timing them: each instruction touches the instruction
// cache (per fetch line), trains the branch predictor, and performs its
// data-cache access, exactly as the detailed front end and memory stages
// would, but retires immediately. The clock advances at decode speed
// (DispatchWidth instructions per cycle) so downstream time-based state
// stays ordered. Multi-programmed streams interleave by smooth weighted
// round-robin over the SetFFMix weights (uniform by default).
//
// The pipeline must be drained first (see DrainPipeline); a pending
// fetched instruction held by a stream is consumed before new ones. The
// returned count is less than n only when every stream is exhausted.
func (m *Machine) FunctionalAdvance(n uint64) (uint64, error) {
	if m.rob.Len() != 0 || m.fetchQ.Len() != 0 {
		return 0, fmt.Errorf("core: FunctionalAdvance requires a drained pipeline")
	}
	// consumeOne pulls stream i's next instruction through the functional
	// front end; it returns false when the stream is exhausted.
	consumeOne := func(i int) (bool, error) {
		sfe := &m.fes[i]
		var in *trace.Rec
		if sfe.havePending {
			in = &sfe.pendingRec
			sfe.havePending = false
		} else if sfe.streamDone {
			return false, nil
		} else {
			var err error
			if in, _, err = sfe.next(); in == nil {
				if err != nil {
					m.err = err
					return false, err
				}
				sfe.streamDone = true
				return false, nil
			}
		}
		// Instruction cache: one lookup per fetch line, mirroring the
		// detailed front end; the refill latency is ignored.
		line := (in.PC + sfe.off) >> m.lineShift
		if !sfe.haveFetchLine || line != sfe.lastFetchLine {
			m.cov.ILat += uint64(m.mem.InstFetch(in.PC + sfe.off))
			sfe.lastFetchLine = line
			sfe.haveFetchLine = true
		}
		if in.Class.IsBranch() {
			taken := in.Taken()
			tgt := in.Addr
			if taken {
				tgt += sfe.off
			}
			m.cov.Branches++
			if m.pred.Update(in.PC+sfe.off, taken, tgt) {
				m.cov.Mispredicts++
			}
		}
		if in.Class.IsMem() {
			m.cov.DLat += uint64(m.mem.DataAccess(in.Addr+sfe.off, in.Class == isa.Store))
		}
		return true, nil
	}

	var consumed uint64
	if len(m.fes) == 1 {
		for consumed < n {
			ok, err := consumeOne(0)
			if err != nil {
				return consumed, err
			}
			if !ok {
				break
			}
			consumed++
		}
	} else {
		// Smooth weighted round-robin: each slot goes to the live stream
		// with the largest accumulated deficit.
		if len(m.ffMix) != len(m.fes) {
			m.SetFFMix(nil)
		}
		var acc [MaxStreams]int64
		var total int64
		live := 0
		for i := range m.fes {
			if !m.fes[i].streamDone || m.fes[i].havePending {
				live++
				total += int64(m.ffMix[i])
			}
		}
		for consumed < n && live > 0 {
			pick, best := -1, int64(0)
			for i := range m.fes {
				sfe := &m.fes[i]
				if sfe.streamDone && !sfe.havePending {
					continue
				}
				acc[i] += int64(m.ffMix[i])
				if pick < 0 || acc[i] > best {
					pick, best = i, acc[i]
				}
			}
			if pick < 0 {
				break
			}
			acc[pick] -= total
			ok, err := consumeOne(pick)
			if err != nil {
				return consumed, err
			}
			if !ok {
				live--
				total -= int64(m.ffMix[pick])
				acc[pick] = 0
				continue
			}
			consumed++
		}
	}
	if consumed > 0 {
		w := uint64(m.cfg.DispatchWidth)
		m.now += (consumed + w - 1) / w
		m.fabric.Advance(m.now)
		m.stats.Cycles = m.now - m.statsBase
	}
	// Any in-progress I-cache refill completed during the span, and the
	// span itself counts as progress for the wedge diagnostic.
	for i := range m.fes {
		m.fes[i].fetchResumeAt = 0
	}
	m.lastCommitAt = m.now
	m.ffInsts += consumed
	return consumed, nil
}

// FFInsts returns how many instructions FunctionalAdvance has consumed
// since the last Reset. Exact runs always report zero.
func (m *Machine) FFInsts() uint64 { return m.ffInsts }
