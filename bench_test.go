// Package repro_test holds the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (Section 4), plus component
// micro-benchmarks. Figure benchmarks report the paper's headline numbers
// as custom benchmark metrics (e.g. speedup-% for Figure 6) so that
// `go test -bench=.` regenerates the evaluation. No paper-vs-measured
// record exists yet (ROADMAP item 4(d)); internal/harness/shapes_test.go
// pins the figures' qualitative orderings, docs/performance.md records the
// measured trajectory.
//
// The benchmark bodies live in internal/bench so that cmd/benchrec can
// run the same measurements and append them to the BENCH_<n>.json
// performance trajectory (see docs/performance.md); the functions here
// are thin `go test` entry points.
package repro_test

import (
	"testing"

	"repro/internal/bench"
)

func BenchmarkTable1AreaModel(b *testing.B)   { bench.Table1AreaModel(b) }
func BenchmarkSection32Layout(b *testing.B)   { bench.Section32Layout(b) }
func BenchmarkFig6Speedup(b *testing.B)       { bench.Fig6Speedup(b) }
func BenchmarkSampledGrid(b *testing.B)       { bench.SampledGrid(b) }
func BenchmarkFig7Comms(b *testing.B)         { bench.Fig7Comms(b) }
func BenchmarkFig8Distance(b *testing.B)      { bench.Fig8Distance(b) }
func BenchmarkFig9Contention(b *testing.B)    { bench.Fig9Contention(b) }
func BenchmarkFig10NReady(b *testing.B)       { bench.Fig10NReady(b) }
func BenchmarkFig11Distribution(b *testing.B) { bench.Fig11Distribution(b) }
func BenchmarkFig12WireScaling(b *testing.B)  { bench.Fig12WireScaling(b) }
func BenchmarkFig13SSASpeedup(b *testing.B)   { bench.Fig13SSASpeedup(b) }
func BenchmarkFig14SSANReady(b *testing.B)    { bench.Fig14SSANReady(b) }

// --- service / fleet benchmarks ---

func BenchmarkSweepSingleNode(b *testing.B)    { bench.SweepSingleNode(b) }
func BenchmarkSweepFleet2Workers(b *testing.B) { bench.SweepFleet2Workers(b) }

// --- multi-programmed workload benchmarks ---

func BenchmarkMultiProgram2(b *testing.B) { bench.MultiProgram2(b) }
func BenchmarkMultiProgram4(b *testing.B) { bench.MultiProgram4(b) }

// --- synthetic workload benchmarks ---

func BenchmarkSynthSweep(b *testing.B)       { bench.SynthSweep(b) }
func BenchmarkMixFairnessStudy(b *testing.B) { bench.MixFairnessStudy(b) }

// --- component micro-benchmarks ---

func BenchmarkSimulatorThroughput(b *testing.B) { bench.SimulatorThroughput(b) }
func BenchmarkWorkloadGenerator(b *testing.B)   { bench.WorkloadGenerator(b) }
func BenchmarkBusReservation(b *testing.B)      { bench.BusReservation(b) }
func BenchmarkPredictor(b *testing.B)           { bench.Predictor(b) }
func BenchmarkCacheAccess(b *testing.B)         { bench.CacheAccess(b) }
func BenchmarkMachineReset(b *testing.B)        { bench.MachineReset(b) }
