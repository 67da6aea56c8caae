// Package bench holds the paper's figure benchmarks as plain functions so
// two harnesses can share them: the `go test -bench` entry points in the
// repository root (bench_test.go) and the cmd/benchrec recorder, which
// runs them via testing.Benchmark and snapshots the results into the
// repository's BENCH_<n>.json performance trajectory.
package bench

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/interconnect"
	"repro/internal/layout"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Insts and Warmup are the per-program instruction budgets for figure
// benchmarks; small enough that a full-grid benchmark iteration stays in
// seconds, large enough that the shapes are stable.
const (
	Insts  = 30_000
	Warmup = 6_000
)

// mainGrid runs the ten Table 3 configurations over the full suite.
func mainGrid(b *testing.B) map[harness.Key]harness.Run {
	b.Helper()
	res, err := harness.Grid(harness.PaperConfigs(), workload.Names(), Insts, Warmup)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// Table1AreaModel regenerates the Table 1 block areas.
func Table1AreaModel(b *testing.B) {
	var blocks layout.Blocks
	for i := 0; i < b.N; i++ {
		blocks = layout.Compute(layout.DefaultConfig())
	}
	b.ReportMetric(blocks.FPU.Area, "FPU-λ²")
	b.ReportMetric(blocks.RegFile.Area, "regfile-λ²")
}

// Section32Layout regenerates the layout distance analysis.
func Section32Layout(b *testing.B) {
	var d layout.Distances
	for i := 0; i < b.N; i++ {
		d = layout.Analyze(layout.DefaultConfig())
	}
	b.ReportMetric(d.UnifiedRingInt, "int-λ")
	b.ReportMetric(d.UnifiedRingFP, "fp-λ")
	b.ReportMetric(d.SplitRings, "split-λ")
}

// Fig6Speedup regenerates Figure 6: speedup of Ring over Conv, reported
// for the paper's headline configuration (8 clusters, 2 IW, 1 bus) as
// AVERAGE/INT/FP percentages, plus the grid's simulation rate.
func Fig6Speedup(b *testing.B) {
	var avg, intS, fpS float64
	var committed uint64
	for i := 0; i < b.N; i++ {
		res := mainGrid(b)
		avg = harness.Speedup(res, "Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW", harness.SuiteAll)
		intS = harness.Speedup(res, "Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW", harness.SuiteInt)
		fpS = harness.Speedup(res, "Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW", harness.SuiteFP)
		for _, r := range res {
			committed += r.Stats.Committed
		}
	}
	b.ReportMetric(100*avg, "speedup-avg-%")
	b.ReportMetric(100*intS, "speedup-int-%")
	b.ReportMetric(100*fpS, "speedup-fp-%")
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "grid-inst/s")
}

// Fig7Comms regenerates Figure 7: communications per instruction for the
// 8-cluster 1-bus 2IW pair.
func Fig7Comms(b *testing.B) {
	var ring, conv float64
	metric := func(s *core.Stats) float64 { return s.CommsPerInst() }
	for i := 0; i < b.N; i++ {
		res := mainGrid(b)
		ring = harness.Aggregate(res, "Ring_8clus_1bus_2IW", harness.SuiteAll, metric)
		conv = harness.Aggregate(res, "Conv_8clus_1bus_2IW", harness.SuiteAll, metric)
	}
	b.ReportMetric(ring, "ring-comms/inst")
	b.ReportMetric(conv, "conv-comms/inst")
}

// Fig8Distance regenerates Figure 8: average hop distance per
// communication.
func Fig8Distance(b *testing.B) {
	var ring, conv float64
	metric := func(s *core.Stats) float64 { return s.AvgCommDistance() }
	for i := 0; i < b.N; i++ {
		res := mainGrid(b)
		ring = harness.Aggregate(res, "Ring_8clus_1bus_2IW", harness.SuiteAll, metric)
		conv = harness.Aggregate(res, "Conv_8clus_1bus_2IW", harness.SuiteAll, metric)
	}
	b.ReportMetric(ring, "ring-hops")
	b.ReportMetric(conv, "conv-hops")
}

// Fig9Contention regenerates Figure 9: bus-contention delay per
// communication.
func Fig9Contention(b *testing.B) {
	var ring, conv float64
	metric := func(s *core.Stats) float64 { return s.AvgCommWait() }
	for i := 0; i < b.N; i++ {
		res := mainGrid(b)
		ring = harness.Aggregate(res, "Ring_8clus_1bus_2IW", harness.SuiteFP, metric)
		conv = harness.Aggregate(res, "Conv_8clus_1bus_2IW", harness.SuiteFP, metric)
	}
	b.ReportMetric(ring, "ring-wait-cyc")
	b.ReportMetric(conv, "conv-wait-cyc")
}

// Fig10NReady regenerates Figure 10: NREADY workload imbalance.
func Fig10NReady(b *testing.B) {
	var ring, conv float64
	metric := func(s *core.Stats) float64 { return s.AvgNReady() }
	for i := 0; i < b.N; i++ {
		res := mainGrid(b)
		ring = harness.Aggregate(res, "Ring_8clus_1bus_1IW", harness.SuiteAll, metric)
		conv = harness.Aggregate(res, "Conv_8clus_1bus_1IW", harness.SuiteAll, metric)
	}
	b.ReportMetric(ring, "ring-nready")
	b.ReportMetric(conv, "conv-nready")
}

// Fig11Distribution regenerates Figure 11: the evenness of the ring
// machine's per-cluster dispatch distribution, reported as the maximum
// cluster share across the suite (12.5% = perfectly even on 8 clusters).
func Fig11Distribution(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res := mainGrid(b)
		worst = 0
		for _, p := range workload.Names() {
			r := res[harness.Key{Config: "Ring_8clus_1bus_2IW", Workload: p}]
			st := r.Stats
			for c := 0; c < 8; c++ {
				if s := st.ClusterShare(c); s > worst {
					worst = s
				}
			}
		}
	}
	b.ReportMetric(100*worst, "max-cluster-share-%")
}

// Fig12WireScaling regenerates Figure 12: Ring-over-Conv speedup with
// 2-cycle hops (1 bus, 8 clusters, 2IW).
func Fig12WireScaling(b *testing.B) {
	var avg, fp float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Grid(harness.Hop2Configs(), workload.Names(), Insts, Warmup)
		if err != nil {
			b.Fatal(err)
		}
		avg = harness.Speedup(res, "Ring_8clus_1bus_2IW_2cyclehop", "Conv_8clus_1bus_2IW_2cyclehop", harness.SuiteAll)
		fp = harness.Speedup(res, "Ring_8clus_1bus_2IW_2cyclehop", "Conv_8clus_1bus_2IW_2cyclehop", harness.SuiteFP)
	}
	b.ReportMetric(100*avg, "speedup-avg-%")
	b.ReportMetric(100*fp, "speedup-fp-%")
}

// Fig13SSASpeedup regenerates Figure 13: Ring+SSA over Conv+SSA on the
// paper's quoted configuration (8 clusters, 1IW, 2 buses).
func Fig13SSASpeedup(b *testing.B) {
	var avg, intS, fpS float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Grid(harness.SSAConfigs(), workload.Names(), Insts, Warmup)
		if err != nil {
			b.Fatal(err)
		}
		avg = harness.Speedup(res, "Ring_8clus_2bus_1IW+SSA", "Conv_8clus_2bus_1IW+SSA", harness.SuiteAll)
		intS = harness.Speedup(res, "Ring_8clus_2bus_1IW+SSA", "Conv_8clus_2bus_1IW+SSA", harness.SuiteInt)
		fpS = harness.Speedup(res, "Ring_8clus_2bus_1IW+SSA", "Conv_8clus_2bus_1IW+SSA", harness.SuiteFP)
	}
	b.ReportMetric(100*avg, "speedup-avg-%")
	b.ReportMetric(100*intS, "speedup-int-%")
	b.ReportMetric(100*fpS, "speedup-fp-%")
}

// Fig14SSANReady regenerates Figure 14: NREADY under SSA.
func Fig14SSANReady(b *testing.B) {
	var ring, conv float64
	metric := func(s *core.Stats) float64 { return s.AvgNReady() }
	for i := 0; i < b.N; i++ {
		res, err := harness.Grid(harness.SSAConfigs(), workload.Names(), Insts, Warmup)
		if err != nil {
			b.Fatal(err)
		}
		ring = harness.Aggregate(res, "Ring_8clus_1bus_1IW+SSA", harness.SuiteAll, metric)
		conv = harness.Aggregate(res, "Conv_8clus_1bus_1IW+SSA", harness.SuiteAll, metric)
	}
	b.ReportMetric(ring, "ring-ssa-nready")
	b.ReportMetric(conv, "conv-ssa-nready")
}

// SampledGrid is the sampled-fidelity acceptance benchmark: the Figure-6
// grid at a 1M-instruction budget run exact and then with
// DefaultSampling, reporting both simulation rates, the wall-clock
// speedup, and the mean/max absolute IPC error of the sampled estimates
// against the exact grid. The trajectory gates on speedup ≥5× at mean
// error ≤2% (docs/performance.md).
func SampledGrid(b *testing.B) {
	const (
		insts  = 1_000_000
		warmup = 100_000
	)
	cfgs := harness.PaperConfigs()
	names := workload.Names()
	var exactRate, sampledRate, speedup, meanErr, maxErr float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		exact, err := harness.Grid(cfgs, names, insts, warmup)
		if err != nil {
			b.Fatal(err)
		}
		exactSec := time.Since(start).Seconds()
		start = time.Now()
		sampled, err := harness.GridSampledN(cfgs, names, insts, warmup, harness.DefaultSampling)
		if err != nil {
			b.Fatal(err)
		}
		sampledSec := time.Since(start).Seconds()
		var sumErr float64
		maxErr = 0
		for k, er := range exact {
			sr, ok := sampled[k]
			if !ok {
				b.Fatalf("sampled grid missing %v", k)
			}
			e := math.Abs(sr.Stats.IPC()-er.Stats.IPC()) / er.Stats.IPC()
			sumErr += e
			if e > maxErr {
				maxErr = e
			}
		}
		meanErr = sumErr / float64(len(exact))
		// Both rates count the full per-cell budget (warmup + measured):
		// the sampled rate is "effective" — instructions the run accounts
		// for per wall-clock second, most of them fast-forwarded.
		budget := float64(len(cfgs)*len(names)) * float64(insts+warmup)
		exactRate = budget / exactSec
		sampledRate = budget / sampledSec
		speedup = exactSec / sampledSec
	}
	b.ReportMetric(exactRate, "exact-inst/s")
	b.ReportMetric(sampledRate, "sampled-effective-inst/s")
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(100*meanErr, "mean-abs-ipc-err-%")
	b.ReportMetric(100*maxErr, "max-abs-ipc-err-%")
}

// --- component micro-benchmarks ---

// SimulatorThroughput measures simulation speed in simulated instructions
// per wall-clock second on the production path — shared materialized
// trace, pooled machine — for the headline configuration.
func SimulatorThroughput(b *testing.B) {
	req := harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		Workload: workload.Single("swim"),
		Insts:    50_000,
	}
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		run := harness.Execute(req)
		if run.Err != nil {
			b.Fatal(run.Err)
		}
		total += run.Stats.Committed
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "simulated-inst/s")
}

// multiProgram runs one multi-programmed mix on the headline ring
// configuration and reports total and per-stream IPC plus simulation
// throughput.
func multiProgram(b *testing.B, mix string) {
	spec, err := workload.ParseSpec(mix)
	if err != nil {
		b.Fatal(err)
	}
	req := harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		Workload: spec,
		Insts:    Insts,
		Warmup:   Warmup,
	}
	var st core.Stats
	total := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := harness.Execute(req)
		if run.Err != nil {
			b.Fatal(run.Err)
		}
		st = run.Stats
		total += run.Stats.Committed
	}
	b.ReportMetric(st.IPC(), "machine-IPC")
	for i := range st.PerStream {
		b.ReportMetric(st.StreamIPC(i), fmt.Sprintf("stream%d-IPC", i))
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "simulated-inst/s")
}

// MultiProgram2 measures a 2-stream INT+FP mix (gcc+swim) — the
// shared-resource scenario that stresses steering hardest.
func MultiProgram2(b *testing.B) { multiProgram(b, "gcc+swim") }

// MultiProgram4 measures a 4-stream mix spanning both suites.
func MultiProgram4(b *testing.B) { multiProgram(b, "gcc+swim+mcf+applu") }

// WorkloadGenerator measures trace generation speed.
func WorkloadGenerator(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BusReservation measures the inner-loop cost of the slot calendar
// (steady state must not allocate).
func BusReservation(b *testing.B) {
	bus := interconnect.NewBus(8, 1, interconnect.Forward)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		bus.Advance(now)
		if bus.CanInject(now, i%8, (i+3)%8) {
			bus.Inject(now, i%8, (i+3)%8)
		}
	}
}

// Predictor measures branch predictor train+predict throughput.
func Predictor(b *testing.B) {
	p := bpred.New(bpred.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		p.Update(pc, i%3 != 0, pc+16)
	}
}

// CacheAccess measures the data-cache timing-model throughput.
func CacheAccess(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultHierarchy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.DataAccess(uint64(i*64)&0xFFFFF, i%4 == 0)
	}
}

// MachineReset measures the cost of recycling a pooled machine for a new
// run (the per-request overhead the sync.Pool path pays instead of full
// construction).
func MachineReset(b *testing.B) {
	cfg := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
	empty := trace.NewSlice(nil)
	m, err := core.New(cfg, empty)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(cfg, empty); err != nil {
			b.Fatal(err)
		}
	}
}
