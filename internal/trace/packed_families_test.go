package trace_test

import (
	"testing"

	"repro/internal/isa"
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

// collect generates the first n instructions of prog at its own seed.
func collect(t testing.TB, prog string, n int) []isa.Inst {
	t.Helper()
	gen, err := workload.NewStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := trace.Collect(trace.NewLimit(gen, uint64(n)), n)
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

// pack stores insts the way the trace cache does: reserved to their
// length, so the last segment is cut.
func pack(t testing.TB, insts []isa.Inst) *trace.Packed {
	t.Helper()
	var p trace.Packed
	p.Reserve(len(insts))
	if err := p.Extend(trace.NewSlice(insts), len(insts)); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestPackedEncodedSize: the store holds the fixed programs at a mean of
// at most 8 bytes an instruction, allocation slack included, and no
// program or synthetic family above 10 — a third of the decoded record
// or less. The sizes are logged per program (go test -v).
func TestPackedEncodedSize(t *testing.T) {
	const n = 20_000
	var sum float64
	names := workload.Names()
	families := []string{"synth-random", "synth(ws=16M,stride=0.3,ilp=4)", "synth(phases=4)"}
	for i, prog := range append(names, families...) {
		per := float64(pack(t, collect(t, prog, n)).Bytes()) / n
		t.Logf("%-32s %.2f B/inst", prog, per)
		if per > 10 {
			t.Errorf("%s: %.2f B/inst, want <= 10", prog, per)
		}
		if i < len(names) {
			sum += per
		}
	}
	if mean := sum / float64(len(names)); mean > 8 {
		t.Errorf("mean over the %d programs: %.2f B/inst, want <= 8", len(names), mean)
	}
}

// benchPrograms are the families the store benchmarks cover: an integer
// and an FP program and the random synthetic one.
var benchPrograms = []string{"gcc", "swim", "synth-random"}

// BenchmarkPackedAppend measures filling a reserved store, per instruction,
// and what it holds per instruction.
func BenchmarkPackedAppend(b *testing.B) {
	const n = 100_000
	for _, prog := range benchPrograms {
		b.Run(prog, func(b *testing.B) {
			insts := collect(b, prog, n)
			var bytes uint64
			for b.Loop() {
				var p trace.Packed
				p.Reserve(n)
				for k := range insts {
					if err := p.Append(&insts[k]); err != nil {
						b.Fatal(err)
					}
				}
				bytes = p.Bytes()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inst")
			b.ReportMetric(float64(bytes)/n, "bytes/inst")
		})
	}
}

// replaySink keeps the replayed records live.
var replaySink uint64

// BenchmarkPackedReplay measures decoding a store through the cursor the
// simulator's front end reads, per instruction.
func BenchmarkPackedReplay(b *testing.B) {
	const n = 100_000
	for _, prog := range benchPrograms {
		b.Run(prog, func(b *testing.B) {
			view := pack(b, collect(b, prog, n)).View(n)
			for b.Loop() {
				r := view.Replay()
				for rec, _ := r.NextRec(); rec != nil; rec, _ = r.NextRec() {
					replaySink += rec.PC ^ rec.Addr
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inst")
		})
	}
}
