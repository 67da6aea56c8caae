package main

// The mixstudy subcommand: the multi-programmed fairness study over
// synthetic workload mixes. It samples N members of a synth distribution
// family per stream count, runs every mix on the ring and the
// conventional machine, and reports STP / ANTT / fairness against
// single-stream baselines. Every run — mixes and baselines alike — goes
// through the content-addressed result store as one results.Run batch:
// baselines are shared by every mix containing the stream (overlapping
// seed windows make that sharing visible within one study), and
// re-running the whole study over a warm -cache-dir simulates nothing.

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// mixRow is one (mix, architecture) line of the study.
type mixRow struct {
	Streams  int     `json:"streams"`
	Mix      string  `json:"mix"`
	Arch     string  `json:"arch"`
	IPC      float64 `json:"ipc"`
	STP      float64 `json:"stp"`
	ANTT     float64 `json:"antt"`
	Fairness float64 `json:"fairness"`
}

// mixReport is the -json output.
type mixReport struct {
	Family    string   `json:"family"`
	Insts     uint64   `json:"insts"`
	Warmup    uint64   `json:"warmup"`
	Rows      []mixRow `json:"rows"`
	Simulated int      `json:"simulated"`
	CacheHits int      `json:"cache_hits"`
}

// mixstudyMain runs `ringsim mixstudy`.
func mixstudyMain(args []string) {
	fs := flag.NewFlagSet("ringsim mixstudy", flag.ExitOnError)
	mixes := fs.Int("mixes", 8, "sampled mixes per stream count")
	streamsSpec := fs.String("streams", "2,4", "stream counts to study (comma list)")
	family := fs.String("family", "synth-random", "synth workload to sample streams from (a family like synth-random, or any synth(...) spec)")
	seed := fs.Uint64("seed", 1, "first stream seed; mix i of k streams uses seeds seed+i .. seed+i+k-1")
	clusters := fs.Int("clusters", 8, "cluster count for both architectures")
	iw := fs.Int("iw", 2, "per-side issue width per cluster")
	buses := fs.Int("buses", 1, "bus count")
	insts := fs.Uint64("insts", 50_000, "measured instructions per stream")
	warmup := fs.Uint64("warmup", 10_000, "warm-up instructions (not measured)")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory (shareable with ringsimd)")
	asJSON := fs.Bool("json", false, "emit the study as JSON")
	fs.Parse(args)

	if *mixes < 1 {
		fatalf("-mixes must be positive")
	}
	if _, err := workload.CanonicalName(*family); err != nil {
		fatalf("%v", err)
	}
	var streamCounts []int
	for _, s := range workload.SplitList(*streamsSpec) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 || n > workload.MaxStreams {
			fatalf("bad stream count %q (want 2..%d)", s, workload.MaxStreams)
		}
		streamCounts = append(streamCounts, n)
	}
	if len(streamCounts) == 0 {
		fatalf("no stream counts in -streams %q", *streamsSpec)
	}

	store, err := results.OpenDir(*cacheDir, 0)
	if err != nil {
		fatalf("%v", err)
	}

	configs := make([]core.Config, 0, 2)
	for _, arch := range []core.ArchKind{core.ArchRing, core.ArchConv} {
		cfg, err := core.PaperConfig(arch, *clusters, *iw, *buses)
		if err != nil {
			fatalf("%v", err)
		}
		configs = append(configs, cfg)
	}

	// Every row is one mix request followed by its k baseline requests;
	// the whole study settles as one batch.
	rep := mixReport{Family: *family, Insts: *insts, Warmup: *warmup}
	var reqs []harness.Request
	for _, k := range streamCounts {
		for i := 0; i < *mixes; i++ {
			// Overlapping seed windows: mix i shares k-1 streams with mix
			// i+1, so their single-stream baselines are simulated once.
			streams := make([]workload.StreamSpec, k)
			for j := range streams {
				streams[j] = workload.StreamSpec{Program: *family, Seed: *seed + uint64(i+j)}
			}
			spec := workload.Spec{Streams: streams}
			if err := spec.Validate(); err != nil {
				fatalf("%v", err)
			}
			for _, cfg := range configs {
				req := harness.Request{Config: cfg, Workload: spec, Insts: *insts, Warmup: *warmup}
				reqs = append(append(reqs, req), harness.BaselineRequests(req)...)
				rep.Rows = append(rep.Rows, mixRow{Streams: k, Mix: spec.Name(), Arch: cfg.Arch.String()})
			}
		}
	}
	outs := results.Run(store, reqs, runtime.GOMAXPROCS(0))
	for _, o := range outs {
		switch {
		case o.PutErr != nil:
			fatalf("%v", o.PutErr)
		case o.Failed():
			fatalf("%s/%s: %s", o.Config, o.Program, o.Err)
		case o.Hit:
			rep.CacheHits++
		default:
			rep.Simulated++
		}
	}
	for r := range rep.Rows {
		row := &rep.Rows[r]
		mix, base := outs[0], outs[1:1+row.Streams]
		outs = outs[1+row.Streams:]
		baseIPC := make([]float64, len(base))
		for j, b := range base {
			baseIPC[j] = b.Stats.IPC()
		}
		m, err := harness.Fairness(mix.Stats, baseIPC)
		if err != nil {
			fatalf("%s / %s: %v", mix.Config, row.Mix, err)
		}
		row.IPC, row.STP, row.ANTT, row.Fairness = mix.Stats.IPC(), m.STP, m.ANTT, m.Fairness
	}

	if *asJSON {
		printJSON(rep)
		return
	}
	printMixReport(&rep, streamCounts)
}

// printMixReport renders the per-mix table and per-architecture means.
func printMixReport(rep *mixReport, streamCounts []int) {
	fmt.Printf("fairness study: %s mixes, %d insts/stream (+%d warmup)\n",
		rep.Family, rep.Insts, rep.Warmup)
	for _, k := range streamCounts {
		fmt.Printf("\n%d-stream mixes:\n", k)
		fmt.Printf("  %-52s %-5s %7s %7s %7s %9s\n", "mix", "arch", "IPC", "STP", "ANTT", "fairness")
		type agg struct {
			stp, antt, fair float64
			n               int
		}
		means := map[string]*agg{}
		for _, r := range rep.Rows {
			if r.Streams != k {
				continue
			}
			mix := r.Mix
			if len(mix) > 52 {
				mix = mix[:49] + "..."
			}
			fmt.Printf("  %-52s %-5s %7.3f %7.3f %7.3f %9.3f\n",
				mix, r.Arch, r.IPC, r.STP, r.ANTT, r.Fairness)
			a := means[r.Arch]
			if a == nil {
				a = &agg{}
				means[r.Arch] = a
			}
			a.stp += r.STP
			a.antt += r.ANTT
			a.fair += r.Fairness
			a.n++
		}
		for _, arch := range []string{"Ring", "Conv"} {
			if a := means[arch]; a != nil && a.n > 0 {
				n := float64(a.n)
				fmt.Printf("  %-52s %-5s %7s %7.3f %7.3f %9.3f\n",
					fmt.Sprintf("mean over %d mixes", a.n), arch, "", a.stp/n, a.antt/n, a.fair/n)
			}
		}
	}
	fmt.Printf("\nruns: %d simulated, %d served from the result store\n", rep.Simulated, rep.CacheHits)
}
