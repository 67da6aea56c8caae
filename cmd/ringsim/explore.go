package main

// The explore subcommand: design-space exploration from the command
// line. It shares internal/dse with the ringsimd /v1/explore endpoint,
// so a CLI exploration and a service exploration of the same space name
// exactly the same candidate simulations (and share a disk cache when
// -cache-dir points at a ringsimd store).

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
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

	twinMode, err := dse.ParseTwinMode(*twin)
	if err != nil {
		fatalf("%v", err)
	}
	sampling, err := harness.ParseFidelity(*fidelity)
	if err != nil {
		fatalf("%v", err)
	}

	archKind := core.ArchRing
	if strings.EqualFold(*arch, "conv") {
		archKind = core.ArchConv
	} else if !strings.EqualFold(*arch, "ring") {
		fatalf("unknown architecture %q", *arch)
	}
	base, err := core.PaperConfig(archKind, *clusters, *iw, *buses)
	if err != nil {
		fatalf("%v", err)
	}
	axes, err := dse.ParseAxes(*axesSpec)
	if err != nil {
		fatalf("%v", err)
	}
	strat, err := dse.NewStrategy(*strategy, *samples)
	if err != nil {
		fatalf("%v", err)
	}
	var names []string
	switch strings.ToLower(*progs) {
	case "all":
		names = workload.Names()
	case "int":
		names = workload.SuiteNames(workload.ClassInt)
	case "fp":
		names = workload.SuiteNames(workload.ClassFP)
	default:
		// Validate up front: a bad spec should fail before the first
		// simulation, not midway through a half-evaluated space. Full
		// ParseSpec validation admits multi-stream and synthetic specs;
		// SplitList keeps commas inside synth parameter lists intact.
		for _, n := range workload.SplitList(*progs) {
			spec, err := workload.ParseSpec(n)
			if err != nil {
				fatalf("%v", err)
			}
			if err := spec.Validate(); err != nil {
				fatalf("%v", err)
			}
			names = append(names, spec.Name())
		}
		if len(names) == 0 {
			fatalf("no programs named in -progs %q", *progs)
		}
	}
	var store results.Store
	if *cacheDir != "" {
		disk, err := results.NewDisk(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		store = results.NewTiered(results.NewMemoryLRU(4096), disk)
		// Twin profiles persist next to the simulation results, so warm
		// explorations skip both the sims and the profiling pass.
		if err := harness.DefaultProfileCache.SetDir(filepath.Join(*cacheDir, "profiles")); err != nil {
			fatalf("%v", err)
		}
	}

	rep, err := dse.Explore(dse.Options{
		Space:     dse.Space{Base: base, Axes: axes},
		Strategy:  strat,
		Evaluator: &dse.SimEvaluator{Programs: names, Insts: *insts, Warmup: *warmup, Store: store},
		Budget:    *budget,
		Seed:      *seed,
		Sampling:  sampling,
		Twin: &dse.TwinOptions{
			Mode:     twinMode,
			Programs: names,
			Insts:    *insts,
			Warmup:   *warmup,
		},
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatalf("%v", err)
		}
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

// fatalf prints an error and exits.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ringsim explore: "+format+"\n", args...)
	os.Exit(2)
}
