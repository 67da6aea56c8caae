package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/dse"
	"repro/internal/version"
)

// hostStamp says where and under what conditions a set was measured, so
// two sets are only compared when that makes sense and numbers from
// different hosts can be normalized by the calibration figure.
type hostStamp struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of every pass and of the daemon's worker pool
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1"`
	Noisy      bool    `json:"noisy"` // load1 > nproc/2 when the set started
	BuildS     float64 `json:"build_s"`
	// CalibNSPerOp is a fixed integer+memory loop's cost on this host.
	CalibNSPerOp float64 `json:"calib_ns_per_op"`
}

func stampHost(buildS float64) hostStamp {
	h := hostStamp{
		GitSHA:     version.Revision(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: min(2, runtime.NumCPU()),
		BuildS:     buildS,
	}
	if h.GitSHA == "unknown" { // `go run` does not stamp VCS data
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			h.GitSHA = strings.TrimSpace(string(out))
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &h.Load1)
	}
	h.Noisy = h.Load1 > float64(h.NProc)/2
	h.CalibNSPerOp = calibrate()
	return h
}

// calibrate times a fixed amount of dependent integer work over a 64 MB
// table: every step's index depends on the last load, as a simulator's
// event loop depends on its own state.
func calibrate() float64 {
	const ops = 1 << 24
	table := make([]uint64, 1<<23)
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	x := uint64(1)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		x = x*6364136223846793005 + table[x>>41]
	}
	d := time.Since(t0)
	if x == 0 { // keep the loop's result live
		fmt.Fprintln(os.Stderr)
	}
	return float64(d.Nanoseconds()) / ops
}

// summary is one metric over a set's untraced runs of one workload.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// setWorkload is everything a set learned about one workload.
type setWorkload struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Gated     map[string]summary `json:"gated"` // the workload's entries of gated, from the same runs
	PerLayer  map[string]float64 `json:"per_layer"`
}

// setResult is the file a set writes and `compare` reads.
type setResult struct {
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim     any                     `json:"claim"`
	Host      hostStamp               `json:"host"`
	Seed      uint64                  `json:"seed"`
	Scale     float64                 `json:"scale"`
	Seconds   int                     `json:"seconds"`
	Workloads map[string]*setWorkload `json:"workloads"`
}

// setReps is the number of untraced runs of each workload in a set.
const setReps = 3

// runSet measures every workload setReps times untraced — interleaved
// A B C D A B C D, so drift in the host hits all workloads alike — then
// once traced, prints the table and writes the result file.
func runSet(seed uint64, scale float64, seconds int, outDir string) error {
	if scale < 1 { // a smoke set: a pass or two per run is enough to see it work
		seconds = max(1, int(float64(seconds)*scale/2))
	}
	daemon, buildS, err := buildDaemon(outDir)
	if err != nil {
		return err
	}
	set := &setResult{Host: stampHost(buildS), Seed: seed, Scale: scale, Seconds: seconds, Workloads: make(map[string]*setWorkload)}
	if set.Host.Noisy {
		fmt.Printf("warning: load average %.2f on %d CPUs — this set is marked noisy\n", set.Host.Load1, set.Host.NProc)
	}
	values := make(map[string]map[string][]float64)
	for _, w := range workloadNames {
		set.Workloads[w] = &setWorkload{EndToEnd: make(map[string]summary), Gated: make(map[string]summary)}
		values[w] = make(map[string][]float64)
	}
	for rep := 0; rep <= setReps; rep++ {
		traced := rep == setReps
		for _, w := range workloadNames {
			r, err := run(runOpts{workload: w, seed: seed, seconds: seconds, traced: traced, scale: scale, outDir: outDir, daemon: daemon})
			if err != nil {
				return err
			}
			sw := set.Workloads[w]
			sw.Attempted += r.Attempted
			sw.Failed += r.Failed
			sw.Notes = append(sw.Notes, r.Notes...)
			if traced {
				sw.PerLayer = r.Metrics
				printMetrics(r, perLayerUnits)
				continue
			}
			for name, v := range r.Metrics {
				values[w][name] = append(values[w][name], v)
			}
		}
	}
	fmt.Printf("\n%-16s %-28s %14s %14s %14s  %s\n", "workload", "metric", "median", "min", "max", "unit")
	summarize := func(v []float64) summary {
		lo, hi := minMax(v)
		return summary{median(v), lo, hi, v}
	}
	for _, w := range workloadNames {
		sw := set.Workloads[w]
		for _, name := range []string{mSetup, mRate, mCPU, mPeakRSS} {
			s := summarize(values[w][name])
			sw.EndToEnd[name] = s
			fmt.Printf("%-16s %-28s %14.6g %14.6g %14.6g  %s\n", w, name, s.Median, s.Min, s.Max, endToEndUnits[name])
		}
		for _, g := range gated {
			if g.workload == w {
				s := summarize(values[w][g.name])
				sw.Gated[g.name] = s
				fmt.Printf("%-16s %-28s %14.6g %14.6g %14.6g  %s\n", w, g.name, s.Median, s.Min, s.Max, perLayerUnits[g.name])
			}
		}
		fmt.Printf("%-16s %-28s %14.6g  (%d of %d operations)\n", w, "failed_frac", float64(sw.Failed)/float64(max(1, sw.Attempted)), sw.Failed, sw.Attempted)
	}
	// The service's cost over the same compute in-process, which no single
	// workload can report: both passes simulate the same 260 requests.
	if grid, cold := set.Workloads[wFig6].PerLayer["proc.pass_s"], set.Workloads[wService].PerLayer["server.cold_sweep_s"]; cold > 0 {
		fmt.Printf("server overhead: %.1f%% of the cold sweep (1 − fig6_grid proc.pass_s / service_sweep server.cold_sweep_s)\n", 100*(1-grid/cold))
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "set-"+time.Now().Format("20060102-150405")+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, sw := range set.Workloads {
		if sw.Failed > 0 {
			return fmt.Errorf("operations failed; see the notes in %s", path)
		}
	}
	return nil
}

// writeGolden recomputes a seed's golden: each in-process workload's
// record digest from one pass, and the frontier of the exhaustive exact
// exploration the funnel is meant to match.
func writeGolden(seed uint64, outDir string) error {
	g := golden{Digests: make(map[string]string)}
	for _, w := range []string{wFig6, wMixes, wExplore} {
		r, err := run(runOpts{workload: w, seed: seed, scale: 1, outDir: outDir, noGolden: true})
		if err != nil {
			return err
		}
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d operations failed: %v", w, r.Failed, r.Notes)
		}
		g.Digests[w] = r.Passes[0].Digest
	}
	space, progs, err := exploreInputs(seed)
	if err != nil {
		return err
	}
	sz := sizesAt(1)
	rep, err := dse.Explore(dse.Options{
		Space:     space,
		Strategy:  &dse.GridStrategy{},
		Evaluator: &dse.SimEvaluator{Programs: progs, Insts: sz.exploreInsts, Warmup: sz.exploreWarm},
	})
	if err != nil {
		return err
	}
	for _, p := range rep.Frontier {
		g.ExploreFrontier = append(g.ExploreFrontier, frontierPoint{p.Config, p.Objectives.IPC, p.Objectives.Area})
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(seed)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(seed), append(b, '\n'), 0o644)
}
