// Example synth exercises the synthetic workload subsystem end to end:
//
//  1. It parses and canonicalizes a parameterized spec, showing that
//     equivalent spellings collapse to one canonical name — and
//     therefore one content key, fleet-wide.
//  2. It sweeps a scenario axis (working-set size) over the paper's
//     preferred ring machine using spec strings alone — no code per
//     scenario, which is the point: workload.Profile stopped being a
//     closed 26-program enum.
//  3. It runs a small multi-programmed fairness study over sampled
//     synth-random mixes, ring vs conventional, with single-stream
//     baselines served through the content-addressed store, then
//     re-runs it to show the second pass simulates nothing.
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

const (
	insts  = 30_000
	warmup = 6_000
)

func main() {
	// --- 1. Canonicalization ---------------------------------------
	for _, spelling := range []string{
		"synth(ws=4194304, ilp=8.0)",
		"synth(ilp=8,ws=4M)",
	} {
		spec, err := workload.ParseSpec(spelling)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s -> %s\n", spelling, spec.Name())
	}

	// --- 2. A scenario sweep from spec strings ---------------------
	cfg := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
	specs := []string{
		"synth(ws=64K)",
		"synth(ws=1M)",
		"synth(ws=16M)",
		"synth(ws=16M,phases=4)", // phased: the working set moves
	}
	fmt.Printf("\nworking-set sweep on %s:\n", cfg.Name)
	reqs, err := harness.Expand([]core.Config{cfg}, specs, insts, warmup)
	if err != nil {
		log.Fatal(err)
	}
	// Records carry the canonical workload name: ws=1M is the default, so
	// "synth(ws=1M)" prints as "synth".
	for _, r := range run(nil, reqs) {
		fmt.Printf("  %-24s IPC %.3f  comms/inst %.3f\n",
			r.Program, r.Stats.IPC(), r.Stats.CommsPerInst())
	}

	// --- 3. The fairness study, twice ------------------------------
	store := results.NewMemoryLRU(1024)
	for pass := 1; pass <= 2; pass++ {
		sims, hits := study(store)
		fmt.Printf("\nfairness pass %d: %d simulated, %d store hits\n", pass, sims, hits)
	}
}

// run settles the requests through the store (nil = no caching) and
// exits on the first failed record.
func run(store results.Store, reqs []harness.Request) []results.Outcome {
	outs := results.Run(store, reqs, runtime.GOMAXPROCS(0))
	for _, o := range outs {
		if o.PutErr != nil {
			log.Fatal(o.PutErr)
		}
		if o.Failed() {
			log.Fatalf("%s/%s: %s", o.Config, o.Program, o.Err)
		}
	}
	return outs
}

// study runs 2-stream synth-random mixes on ring and conventional
// machines as one batch — each mix followed by its baselines — and prints
// STP/ANTT/fairness. Returns (simulated, hits).
func study(store results.Store) (sims, hits int) {
	var reqs []harness.Request
	for _, arch := range []core.ArchKind{core.ArchRing, core.ArchConv} {
		cfg := core.MustPaperConfig(arch, 8, 2, 1)
		for i := uint64(1); i <= 2; i++ {
			spec := workload.Spec{Streams: []workload.StreamSpec{
				{Program: "synth-random", Seed: i},
				{Program: "synth-random", Seed: i + 1},
			}}
			req := harness.Request{Config: cfg, Workload: spec, Insts: insts, Warmup: warmup}
			reqs = append(append(reqs, req), harness.BaselineRequests(req)...)
		}
	}
	outs := run(store, reqs)
	for _, o := range outs {
		if o.Hit {
			hits++
		} else {
			sims++
		}
	}
	for k := 0; k < len(outs); k += 3 {
		mix := outs[k]
		m, err := harness.Fairness(mix.Stats, []float64{outs[k+1].Stats.IPC(), outs[k+2].Stats.IPC()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s %-44s STP %.3f  ANTT %.3f  fairness %.3f\n",
			reqs[k].Config.Arch, mix.Program, m.STP, m.ANTT, m.Fairness)
	}
	return sims, hits
}
