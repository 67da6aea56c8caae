package core

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// packSlice materializes the slice's instructions in a packed store and
// returns a replay cursor over them.
func packSlice(t *testing.T, s *trace.Slice) *trace.Replay {
	t.Helper()
	var p trace.Packed
	p.Reserve(s.Len())
	if err := p.Extend(s, s.Len()); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	return p.View(s.Len()).Replay()
}

// TestPackedReplayBitIdentity: a machine reading packed records in place
// through the replay cursor is the same machine as one fed the same
// instructions through the generic trace.Stream interface — every
// core.Stats field equal, single- and multi-stream, in detailed execution
// and across a drain + functional fast-forward span.
func TestPackedReplayBitIdentity(t *testing.T) {
	const n = 15_000
	mixes := [][]string{{"gcc"}, {"swim"}, {"mcf", "art"}, {"gcc", "swim", "mcf", "equake"}}
	cfgs := []Config{MustPaperConfig(ArchRing, 8, 2, 1), MustPaperConfig(ArchConv, 4, 2, 1)}
	for _, progs := range mixes {
		for _, cfg := range cfgs {
			generic := make([]trace.Stream, len(progs))
			packed := make([]trace.Stream, len(progs))
			for i, p := range progs {
				s := genSlice(t, p, uint64(i), n)
				packed[i] = packSlice(t, s)
				generic[i] = s
			}
			drive := func(streams []trace.Stream) (Stats, Covariates) {
				m, err := NewMulti(cfg, streams)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.RunCommitted(2000); err != nil {
					t.Fatal(err)
				}
				m.ResetStats()
				if err := m.RunCommitted(3000); err != nil {
					t.Fatal(err)
				}
				if err := m.DrainPipeline(); err != nil {
					t.Fatal(err)
				}
				if _, err := m.FunctionalAdvance(4000); err != nil {
					t.Fatal(err)
				}
				st, err := m.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				return st, m.SampleCov()
			}
			gs, gc := drive(generic)
			ps, pc := drive(packed)
			if !reflect.DeepEqual(gs, ps) {
				t.Errorf("%v on %s: packed replay diverged from the generic stream:\n generic %+v\n packed  %+v", progs, cfg.Name, gs, ps)
			}
			if gc != pc {
				t.Errorf("%v on %s: covariates diverged: %+v vs %+v", progs, cfg.Name, gc, pc)
			}
			if want := uint64(len(progs)) * n; gs.Committed == 0 || gs.Committed > want {
				t.Errorf("%v on %s: committed %d of %d", progs, cfg.Name, gs.Committed, want)
			}
		}
	}
}
