package results

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// BenchmarkRequestKey prices identity: the content key of one
// paper-configuration request, and the id of a 260-job sweep manifest
// (the Figure-6 grid of 10 configurations × 26 programs).
func BenchmarkRequestKey(b *testing.B) {
	b.Run("request", func(b *testing.B) {
		req := NewRequest(goldenRequest())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := req.Key(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("manifest260", func(b *testing.B) {
		var jobs []Job
		for _, cfg := range harness.PaperConfigs() {
			for _, prog := range workload.Names() {
				j, err := NewJob(NewRequest(harness.Request{Config: cfg, Workload: workload.Single(prog), Insts: 300_000, Warmup: 50_000}))
				if err != nil {
					b.Fatal(err)
				}
				jobs = append(jobs, j)
			}
		}
		if len(jobs) != 260 {
			b.Fatalf("grid has %d jobs, want 260", len(jobs))
		}
		m, err := NewSweepManifest(jobs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ID(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
