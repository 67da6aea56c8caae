// Command ringsim simulates one machine configuration on one or more
// workloads and prints the per-workload statistics. A workload is a
// spec string (program[:insts][@seed], streams joined with +): a bare
// program name is the classic single run, "gcc+swim" a multi-programmed
// 2-stream mix with per-stream IPC reported.
//
// Usage:
//
//	ringsim [-arch ring|conv] [-clusters 4|8] [-iw 1|2] [-buses 1|2]
//	        [-hop N] [-steer enhanced|ssa] [-insts N] [-warmup N]
//	        [-progs spec,spec,...|all|int|fp]
//	        [-fidelity exact|sampled|sampled(i,w,warm)] [-v] [-json]
//
//	ringsim explore [-axes SPEC] [-strategy grid|random|climb]
//	        [-budget N] [-samples N] [-seed N] [-progs ...]
//	        [-insts N] [-warmup N] [-cache-dir DIR]
//	        [-fidelity exact|sampled|sampled(i,w,warm)] [-json]
//
//	ringsim attach [-addr URL] [-interval D] [-json] <id>
//
//	ringsim mixstudy [-mixes N] [-streams 2,4] [-family synth-random]
//	        [-seed N] [-insts N] [-warmup N] [-cache-dir DIR] [-json]
//
// With -json, output is the internal/results encoding: one JSON array of
// result records, each carrying the same content-hash key ringsimd uses,
// so CLI runs and service cache entries are directly comparable.
//
// The explore subcommand searches a configuration space for the
// IPC × area Pareto frontier (see internal/dse); it shares the search
// engine and content-addressed caching with ringsimd's /v1/explore.
//
// -fidelity sampled alternates short detailed windows with functional
// fast-forward (see docs/performance.md): runs report extrapolated
// statistics with an IPC confidence interval, and explore runs its
// search tier sampled while re-scoring the final frontier exactly.
//
// The attach subcommand re-attaches to in-flight or finished ringsimd
// work by its durable id (sweep-…, explore-…, or a 64-hex run key) and
// polls it to completion — the ids survive coordinator crashes when the
// daemon runs with a journal (-journal-dir).
//
// The mixstudy subcommand runs the multi-programmed fairness study:
// sampled synthetic mixes at each stream count, ring vs conventional,
// STP/ANTT/fairness against store-served single-stream baselines.
//
// Workload specs may be synthetic ("synth(ilp=8,ws=4M)",
// "synth-random@3"); see docs/workloads.md for the grammar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/version"
	"repro/internal/workload"
)

// subcommands maps each subcommand name to its entry point.
var subcommands = map[string]func(args []string){
	"explore":  exploreMain,
	"attach":   attachMain,
	"mixstudy": mixstudyMain,
}

// command names the running (sub)command in error messages.
var command = "ringsim"

func main() {
	if len(os.Args) > 1 && subcommands[os.Args[1]] != nil {
		command += " " + os.Args[1]
		subcommands[os.Args[1]](os.Args[2:])
		return
	}
	arch := flag.String("arch", "ring", "architecture: ring or conv")
	clusters := flag.Int("clusters", 8, "number of clusters (4 or 8)")
	iw := flag.Int("iw", 2, "per-side issue width per cluster (1 or 2)")
	buses := flag.Int("buses", 1, "number of buses (1 or 2)")
	hop := flag.Int("hop", 1, "bus latency per hop in cycles")
	steer := flag.String("steer", "enhanced", "steering: enhanced or ssa")
	insts := flag.Uint64("insts", 300_000, "measured instructions per stream")
	warmup := flag.Uint64("warmup", 50_000, "warm-up instructions (not measured)")
	progs := flag.String("progs", "all", "workloads run separately: comma list of spec strings (program[:insts][@seed], streams joined with +), or all/int/fp")
	verbose := flag.Bool("v", false, "print extra statistics")
	asJSON := flag.Bool("json", false, "emit results as JSON (internal/results encoding)")
	fidelity := flag.String("fidelity", "exact", "execution fidelity: exact, sampled, or sampled(interval,window,warm)")
	showVersion := flag.Bool("version", false, "print the build revision and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Revision())
		return
	}
	sampling, err := harness.ParseFidelity(*fidelity)
	if err != nil {
		fatalf("%v", err)
	}

	cfg, err := results.PaperSpec{Arch: *arch, Clusters: *clusters, IW: *iw, Buses: *buses, Hop: *hop, Steer: *steer}.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	names, err := workload.ResolveList(*progs)
	if err != nil {
		fatalf("%v", err)
	}

	reqs, err := harness.ExpandSampled([]core.Config{cfg}, names, *insts, *warmup, sampling)
	if err != nil {
		fatalf("%v", err)
	}
	recs := make([]results.Result, len(reqs))
	for i, o := range results.Run(nil, reqs, runtime.GOMAXPROCS(0)) {
		if o.Failed() {
			fmt.Fprintf(os.Stderr, "ringsim: %s/%s: %s\n", o.Config, o.Program, o.Err)
			os.Exit(1)
		}
		recs[i] = o.Result
	}
	if *asJSON {
		printJSON(recs)
		return
	}
	fmt.Printf("configuration: %s\n", cfg.Name)
	if sampling.Enabled() {
		fmt.Printf("fidelity: %s\n", sampling.String())
	}
	fmt.Printf("%-10s %7s %8s %7s %7s %8s %8s\n",
		"workload", "IPC", "comms/i", "dist", "wait", "NREADY", "mispred")
	for _, r := range recs {
		st := r.Stats
		fmt.Printf("%-10s %7.3f %8.3f %7.2f %7.2f %8.2f %7.1f%%",
			r.Program, st.IPC(), st.CommsPerInst(), st.AvgCommDistance(),
			st.AvgCommWait(), st.AvgNReady(), 100*st.MispredictRate())
		if r.Sampled != nil {
			fmt.Printf("  ±%.3f", r.Sampled.IPCCI)
		}
		fmt.Println()
		for i, ss := range st.PerStream {
			fmt.Printf("  stream %d %7.3f  committed=%d mispred=%.1f%%\n",
				i, ss.IPC(st.Cycles), ss.Committed, 100*ss.MispredictRate())
		}
		if *verbose {
			fmt.Printf("           cycles=%d committed=%d loads=%d stores=%d fwd=%d stalls[iq=%d regs=%d rob=%d lsq=%d comm=%d]\n",
				st.Cycles, st.Committed, st.Loads, st.Stores, st.LoadFwds,
				st.StallIQ, st.StallRegs, st.StallROB, st.StallLSQ, st.StallComm)
			fmt.Printf("           dispatch share:")
			for c := 0; c < cfg.Clusters; c++ {
				fmt.Printf(" %5.1f%%", 100*st.ClusterShare(c))
			}
			fmt.Println()
		}
	}
}

// fatalf reports an error under the running command's name and exits 2.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, command+": "+format+"\n", args...)
	os.Exit(2)
}

// printJSON writes v to stdout as indented JSON.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("%v", err)
	}
}
