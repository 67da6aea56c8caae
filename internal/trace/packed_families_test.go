package trace_test

import (
	"testing"

	_ "repro/internal/synth" // registers the synth(...) and synth-random providers
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPackedRoundTrip: every generator family the repo has — the fixed
// integer and FP programs, an explicit synth(...) spec, the synth-random
// families and a phased synthetic program — produces only instructions the
// packed layout holds exactly: decode(pack(x)) == x field for field, Seq
// included.
func TestPackedRoundTrip(t *testing.T) {
	const n = 20_000
	programs := append(workload.Names(),
		"synth(ws=16M,stride=0.3,ilp=4)",
		"synth(ilp=2,br=0.2,ld=0.3,st=0.1,fp=0.5)",
		"synth(phases=3,plen=3000)",
		"synth-random", "synth-int", "synth-fp",
	)
	for _, prog := range programs {
		for _, seed := range []uint64{0, 77} {
			gen, err := workload.NewStream(prog, seed)
			if err != nil {
				t.Fatalf("%s@%d: %v", prog, seed, err)
			}
			want, err := trace.Collect(trace.NewLimit(gen, n), n)
			if err != nil {
				t.Fatal(err)
			}
			var p trace.Packed
			p.Reserve(n)
			if err := p.Extend(trace.NewSlice(want), n); err != nil {
				t.Fatalf("%s@%d: %v", prog, seed, err)
			}
			replay := p.View(n).Replay()
			for i := range want {
				got, err := replay.Next()
				if err != nil {
					t.Fatalf("%s@%d: replay ended at %d: %v", prog, seed, i, err)
				}
				if got != want[i] {
					t.Fatalf("%s@%d instruction %d:\n got %+v\nwant %+v", prog, seed, i, got, want[i])
				}
			}
		}
	}
}
