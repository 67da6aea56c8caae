package main

// The explore subcommand: design-space exploration from the command
// line. Its flags fill the same dse.Request the ringsimd /v1/explore
// endpoint decodes, resolved by the same Request.Options, so a CLI
// exploration and a service exploration of the same space name exactly
// the same candidate simulations (scripts/explore_smoke.sh compares
// their frontiers) and share a disk cache when -cache-dir points at a
// ringsimd store.

import (
	"flag"
	"fmt"

	"repro/internal/dse"
	"repro/internal/results"
	"repro/internal/workload"
)

// exploreMain runs `ringsim explore`.
func exploreMain(args []string) {
	fs := flag.NewFlagSet("ringsim explore", flag.ExitOnError)
	arch := fs.String("arch", "ring", "base architecture: ring or conv")
	clusters := fs.Int("clusters", 8, "base cluster count")
	iw := fs.Int("iw", 2, "base per-side issue width")
	buses := fs.Int("buses", 1, "base bus count")
	axesSpec := fs.String("axes", "arch=ring,conv;clusters=4,8;buses=1..2;iw=1..2",
		"axes as name=values clauses separated by ';' (values: comma list, lo..hi, lo..hi/step)")
	strategy := fs.String("strategy", "grid", "search strategy: grid, random, or climb")
	budget := fs.Int("budget", 0, "max candidates to evaluate (0 = grid size)")
	samples := fs.Int("samples", 32, "random-strategy sample count")
	seed := fs.Int64("seed", 1, "seed for stochastic strategies")
	progs := fs.String("progs", "all", "programs: comma list, or all/int/fp")
	insts := fs.Uint64("insts", 300_000, "measured instructions per program")
	warmup := fs.Uint64("warmup", 50_000, "warm-up instructions (not measured)")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory (shareable with ringsimd)")
	twin := fs.String("twin", "off", "analytical-twin gate: on, off, or auto (on scores the space closed-form and simulates only the predicted frontier + ε-neighborhood)")
	fidelity := fs.String("fidelity", "exact", "search-tier fidelity: exact, sampled, or sampled(interval,window,warm); the final frontier is always re-scored exactly")
	asJSON := fs.Bool("json", false, "emit the full exploration report as JSON")
	fs.Parse(args)

	axes, err := dse.ParseAxes(*axesSpec)
	if err != nil {
		fatalf("%v", err)
	}
	names, err := workload.ResolveList(*progs)
	if err != nil {
		fatalf("%v", err)
	}
	req := dse.Request{
		Base:     &results.ConfigSpec{Paper: &results.PaperSpec{Arch: *arch, Clusters: *clusters, IW: *iw, Buses: *buses}},
		Axes:     axes,
		Strategy: *strategy,
		Budget:   *budget,
		Samples:  *samples,
		Seed:     *seed,
		Programs: names,
		Insts:    *insts,
		Warmup:   *warmup,
		Twin:     *twin,
		Fidelity: *fidelity,
	}
	opts, err := req.Options()
	if err != nil {
		fatalf("%v", err)
	}
	store, err := results.OpenDir(*cacheDir, 0)
	if err != nil {
		fatalf("%v", err)
	}
	opts.Evaluator = &dse.SimEvaluator{Programs: opts.Twin.Programs, Insts: *insts, Warmup: *warmup, Store: store}
	rep, err := dse.Explore(opts)
	if err != nil {
		fatalf("%v", err)
	}
	if *asJSON {
		printJSON(rep)
		return
	}
	printReport(rep)
}

// printReport renders the exploration summary and frontier table.
func printReport(rep *dse.Report) {
	fmt.Printf("strategy %s over %d-point space: %d evaluated, %d skipped, %d failed, %d rounds\n",
		rep.Strategy, rep.SpaceSize, rep.Evaluated, rep.Skipped, rep.Failed, rep.Rounds)
	fmt.Printf("simulations: %d run, %d cache hits (%.0f%% hit rate)\n",
		rep.SimsRun, rep.CacheHits, 100*rep.CacheHitRate())
	if rep.TwinMode != "" {
		fmt.Printf("twin: %d predictions, %d sims avoided, %d candidates verified, MAPE %.1f%%\n",
			rep.TwinPredictions, rep.SimsAvoided, rep.TwinVerified, rep.TwinMAPE)
	}
	if rep.Fidelity != "" {
		fmt.Printf("fidelity: %s search tier (%d sampled sims), %d frontier candidates confirmed exact\n",
			rep.Fidelity, rep.SampledSims, rep.ExactConfirms)
	}
	fmt.Printf("Pareto frontier (%d points, IPC maximized, area minimized):\n", len(rep.Frontier))
	fmt.Printf("%-46s %8s %14s\n", "config", "IPC", "area (λ²)")
	for _, p := range rep.Frontier {
		fmt.Printf("%-46s %8.3f %14.3e\n", p.Config, p.Objectives.IPC, p.Objectives.Area)
	}
}
