// Command benchmark is the repository's one benchmark: four workloads
// over the paths a user takes (CLI grid, scenario scan, ringsimd sweep,
// three-tier exploration), end-to-end metrics with tracing off, per-layer
// metrics from a traced run, and checked outputs. See README.md here and
// BENCHMARK.json at the repository root.
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//	go run ./benchmark [-seed N] [-scale F] [-out DIR]                 a full set: 3 runs + 1 traced run per workload
//	go run ./benchmark compare a.json b.json                           judge set b against set a
//	go run ./benchmark -update-golden [-seed N]                        rewrite benchmark/golden/seed<N>.json
//
// Run it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run this one workload and print its result JSON as the last line")
	seed := flag.Uint64("seed", 0, "input seed (0 = the inputs the committed goldens pin)")
	seconds := flag.Int("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	scale := flag.Float64("scale", 1, "multiply instruction and request counts (0.1 = smoke; skips the goldens)")
	out := flag.String("out", "benchmark/out", "directory for build outputs, scratch space, span files and set results")
	updateGolden := flag.Bool("update-golden", false, "recompute benchmark/golden/seed<N>.json")
	child := flag.Bool("child", false, "internal: run one pass in this process")
	dir := flag.String("dir", "", "internal: the pass's scratch directory")
	daemon := flag.String("daemon", "", "internal: path of the built ringsimd")
	spawned := flag.Int64("spawned", 0, "internal: when the parent started this child (unix ns)")
	flag.Parse()

	var err error
	switch {
	case *child:
		c := &passCtx{
			workload: *workload, seed: *seed, sz: sizesAt(*scale),
			dir: *dir, outDir: *out, daemon: *daemon, spawned: time.Unix(0, *spawned),
		}
		if *trace == 1 {
			c.tr = newTracer()
		}
		err = runPass(c)
	case *updateGolden:
		err = writeGolden(*seed, *out)
	case *workload != "":
		err = runOne(runOpts{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, scale: *scale, outDir: *out})
	default:
		err = runSet(*seed, *scale, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one run, every metric printed by name,
// then the result object as the last line of standard output.
func runOne(o runOpts) error {
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	if o.workload == wService {
		var err error
		if o.daemon, _, err = buildDaemon(o.outDir); err != nil {
			return err
		}
	}
	r, err := run(o)
	if err != nil {
		return err
	}
	units := endToEndUnits
	if o.traced {
		units = perLayerUnits
	}
	printMetrics(r, units)
	metrics := make(map[string]metricOut, len(units))
	for name, unit := range units {
		metrics[name] = metricOut{r.Metrics[name], unit}
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
}

// printMetrics lists a run's metrics for a reader.
func printMetrics(r *runResult, units map[string]string) {
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("%s: %d passes, %d operations attempted, %d failed; %s metrics:\n",
		r.Workload, len(r.Passes), r.Attempted, r.Failed, kind)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, r.Metrics[n], units[n])
	}
	for _, note := range r.Notes {
		fmt.Println("  !", note)
	}
}
