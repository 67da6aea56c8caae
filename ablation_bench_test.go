package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/steering"
	"repro/internal/workload"
)

// Ablation benchmarks, one per design choice the machine model exposes as
// a core.Config field. Each reports the quantity the choice controls as
// custom metrics so a sweep is one `go test -bench Ablate .` away.

// ablationProgs is a small communication-sensitive mix.
var ablationProgs = []string{"swim", "mgrid", "gzip", "mcf"}

func gridIPC(b *testing.B, cfgs []core.Config, suite harness.Suite) map[string]float64 {
	b.Helper()
	res, err := harness.Grid(cfgs, ablationProgs, 25_000, 5_000)
	if err != nil {
		b.Fatal(err)
	}
	out := make(map[string]float64, len(cfgs))
	for _, c := range cfgs {
		out[c.Name] = harness.Aggregate(res, c.Name, suite,
			func(s *core.Stats) float64 { return s.IPC() })
	}
	return out
}

// BenchmarkAblateCommModel separates steering quality from interconnect
// limits: Ring vs Conv under real buses, contention-free buses, and
// instant communication. (With free communication Conv's explicit balance
// wins; with real buses Ring wins — the paper's causal claim.)
func BenchmarkAblateCommModel(b *testing.B) {
	models := []core.CommModel{core.CommBuses, core.CommNoContention, core.CommInstant}
	var metrics map[string]float64
	for i := 0; i < b.N; i++ {
		var cfgs []core.Config
		for _, m := range models {
			for _, arch := range []core.ArchKind{core.ArchRing, core.ArchConv} {
				c := core.MustPaperConfig(arch, 8, 2, 1)
				c.Comm = m
				c.Name = fmt.Sprintf("%s_%s", c.Name, m)
				cfgs = append(cfgs, c)
			}
		}
		metrics = gridIPC(b, cfgs, harness.SuiteAll)
	}
	for name, ipc := range metrics {
		b.ReportMetric(ipc, name+"-IPC")
	}
}

// BenchmarkAblateDCountThreshold sweeps Conv's imbalance threshold: too
// low over-communicates, too high under-balances. Reports Conv IPC per
// threshold.
func BenchmarkAblateDCountThreshold(b *testing.B) {
	thresholds := []float64{8, 24, 64, 256}
	var metrics map[string]float64
	for i := 0; i < b.N; i++ {
		var cfgs []core.Config
		for _, th := range thresholds {
			c := core.MustPaperConfig(core.ArchConv, 8, 2, 1)
			c.Conv = steering.ConvConfig{Threshold: th, DecayPeriod: 64, DecayFactor: 0.5}
			c.Name = fmt.Sprintf("Conv_thresh%g", th)
			cfgs = append(cfgs, c)
		}
		metrics = gridIPC(b, cfgs, harness.SuiteAll)
	}
	for name, ipc := range metrics {
		b.ReportMetric(ipc, name+"-IPC")
	}
}

// BenchmarkAblateIssueQueueDepth sweeps the per-cluster issue queue size
// around the paper's 16 entries (the structure the paper argues stays
// small and fast at 8 clusters).
func BenchmarkAblateIssueQueueDepth(b *testing.B) {
	depths := []int{8, 16, 32, 64}
	var metrics map[string]float64
	for i := 0; i < b.N; i++ {
		var cfgs []core.Config
		for _, d := range depths {
			c := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
			c.IQInt, c.IQFP = d, d
			c.Name = fmt.Sprintf("Ring_iq%d", d)
			cfgs = append(cfgs, c)
		}
		metrics = gridIPC(b, cfgs, harness.SuiteAll)
	}
	for name, ipc := range metrics {
		b.ReportMetric(ipc, name+"-IPC")
	}
}

// BenchmarkAblateRegisterFile sweeps the per-cluster register count
// around the paper's 48 (the resource the ring steering tie-breaks on).
func BenchmarkAblateRegisterFile(b *testing.B) {
	regs := []int{40, 48, 64, 96}
	var metrics map[string]float64
	for i := 0; i < b.N; i++ {
		var cfgs []core.Config
		for _, r := range regs {
			c := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
			c.RegsInt, c.RegsFP = r, r
			c.Name = fmt.Sprintf("Ring_regs%d", r)
			cfgs = append(cfgs, c)
		}
		metrics = gridIPC(b, cfgs, harness.SuiteAll)
	}
	for name, ipc := range metrics {
		b.ReportMetric(ipc, name+"-IPC")
	}
}

// BenchmarkAblateHopLatency extends Figure 12 to hop latencies 1-4 for
// the FP suite (the wire-scaling trend the conclusion banks on).
func BenchmarkAblateHopLatency(b *testing.B) {
	var speedups [4]float64
	for i := 0; i < b.N; i++ {
		for h := 1; h <= 4; h++ {
			ring := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
			conv := core.MustPaperConfig(core.ArchConv, 8, 2, 1)
			if h != 1 {
				ring = ring.WithHopLatency(h)
				conv = conv.WithHopLatency(h)
			}
			res, err := harness.Grid([]core.Config{ring, conv},
				workload.SuiteNames(workload.ClassFP), 20_000, 4_000)
			if err != nil {
				b.Fatal(err)
			}
			speedups[h-1] = harness.Speedup(res, ring.Name, conv.Name, harness.SuiteFP)
		}
	}
	for h := 1; h <= 4; h++ {
		b.ReportMetric(100*speedups[h-1], fmt.Sprintf("hop%d-speedup-%%", h))
	}
}

// BenchmarkAblateCopyRelease compares the two copy-release policies the
// paper describes (Section 3 analyzes release-on-redefine; we also
// implement the release-on-read alternative). Reports the trade-off:
// communications per instruction vs peak register pressure.
func BenchmarkAblateCopyRelease(b *testing.B) {
	type point struct{ comms, peak, ipc float64 }
	var results [2]point
	for i := 0; i < b.N; i++ {
		for pi, pol := range []core.CopyRelease{core.ReleaseOnRedefine, core.ReleaseOnRead} {
			c := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
			c.Copies = pol
			c.Name = "Ring_" + pol.String()
			res, err := harness.Grid([]core.Config{c}, ablationProgs, 25_000, 5_000)
			if err != nil {
				b.Fatal(err)
			}
			results[pi] = point{
				comms: harness.Aggregate(res, c.Name, harness.SuiteAll,
					func(s *core.Stats) float64 { return s.CommsPerInst() }),
				peak: harness.Aggregate(res, c.Name, harness.SuiteAll,
					func(s *core.Stats) float64 { return float64(s.PeakRegsInt + s.PeakRegsFP) }),
				ipc: harness.Aggregate(res, c.Name, harness.SuiteAll,
					func(s *core.Stats) float64 { return s.IPC() }),
			}
		}
	}
	b.ReportMetric(results[0].comms, "redefine-comms/inst")
	b.ReportMetric(results[1].comms, "onread-comms/inst")
	b.ReportMetric(results[0].peak, "redefine-peak-regs")
	b.ReportMetric(results[1].peak, "onread-peak-regs")
	b.ReportMetric(results[0].ipc, "redefine-IPC")
	b.ReportMetric(results[1].ipc, "onread-IPC")
}
