package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// runOpts is one run of one workload: as many passes as fit in seconds,
// each in a fresh child process.
type runOpts struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	scale    float64
	outDir   string
	daemon   string // path of the built ringsimd; only service_sweep needs it
	noGolden bool   // -update-golden: there is nothing to hold the run to yet
}

// runResult is a run's passes and what they reduce to.
type runResult struct {
	Workload string
	Traced   bool
	Passes   []pass
	// Failed counts the operations that failed, or every operation when a
	// check of the outputs did; Notes says why.
	Attempted, Failed int
	Notes             []string
	// Metrics are the end-to-end and gated metrics of an untraced run
	// (medians over its passes) or the per-layer metrics of a traced one.
	Metrics map[string]float64
}

// golden pins what seed-0 inputs at full scale must produce.
type golden struct {
	// Digests maps workload → SHA-256 over its result records.
	// service_sweep is checked against fig6_grid's entry: the service
	// must return the very records the in-process grid computes.
	Digests map[string]string `json:"digests"`
	// ExploreFrontier is the Pareto set of the exhaustive, exact
	// exploration of explore_funnel's space — what the funnel should find
	// while simulating a quarter of it.
	ExploreFrontier []frontierPoint `json:"explore_frontier"`
}

func goldenPath(seed uint64) string {
	return filepath.Join("benchmark", "golden", fmt.Sprintf("seed%d.json", seed))
}

// loadGolden returns the golden for a seed, nil when none is committed
// or the run is not at full scale.
func loadGolden(seed uint64, scale float64) (*golden, error) {
	if scale != 1 {
		return nil, nil
	}
	b, err := os.ReadFile(goldenPath(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	return &g, json.Unmarshal(b, &g)
}

// goldenDigestKey is the golden entry a workload's digest is held to.
func goldenDigestKey(workload string) string {
	if workload == wService {
		return wFig6
	}
	return workload
}

// buildDaemon compiles cmd/ringsimd into the output directory, from the
// checkout the benchmark runs in, and reports how long that took.
func buildDaemon(outDir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(outDir, "bin", "ringsimd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ringsimd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("build ringsimd: %w", err)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// run executes one run. Untraced, every pass is untraced. Traced, passes
// alternate untraced and traced (at least one of each): the untraced ones
// give the reference wall time and records, so the run reports the
// tracing overhead and checks that tracing changed no result.
func run(o runOpts) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if o.outDir, err = filepath.Abs(o.outDir); err != nil {
		return nil, err
	}
	var gold *golden
	if !o.noGolden {
		if gold, err = loadGolden(o.seed, o.scale); err != nil {
			return nil, err
		}
	}
	res := &runResult{Workload: o.workload, Traced: o.traced, Metrics: make(map[string]float64)}
	minPasses := 1
	if o.traced {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < time.Duration(o.seconds)*time.Second; i++ {
		dir := filepath.Join(o.outDir, "tmp", fmt.Sprintf("%d-%d", os.Getpid(), i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		p, err := spawnPass(exe, o, dir, o.traced && i%2 == 1)
		rmErr := os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if rmErr != nil {
			return nil, rmErr
		}
		res.Passes = append(res.Passes, *p)
	}
	res.reduce(gold)
	return res, nil
}

// spawnPass runs one child to completion and decodes its report.
func spawnPass(exe string, o runOpts, dir string, traced bool) (*pass, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-child", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "-trace", trace,
		"-out", o.outDir, "-dir", dir, "-daemon", o.daemon,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	// Two threads of simulation whatever the host has, so a result names
	// its parallelism instead of inheriting it.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(2, runtime.NumCPU())))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", o.workload, err)
	}
	var p pass
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		return nil, fmt.Errorf("%s pass: decode report: %w", o.workload, err)
	}
	return &p, nil
}

// reduce checks the passes against each other and the golden, then
// reduces them to the run's metrics.
func (r *runResult) reduce(gold *golden) {
	for _, p := range r.Passes {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		r.Notes = append(r.Notes, p.Notes...)
	}
	// Every pass of a deterministic simulator must produce the same
	// records — traced or not — and at a golden seed, the pinned ones. A
	// mismatch means no operation's output can be trusted.
	want := r.Passes[0].Digest
	if gold != nil {
		want = gold.Digests[goldenDigestKey(r.Workload)]
	}
	for _, p := range r.Passes {
		if p.Digest != want {
			r.Failed = r.Attempted
			r.Notes = append(r.Notes, fmt.Sprintf("result digest %.12s… differs from the expected %.12s…", p.Digest, want))
			break
		}
	}

	var untraced, traced []pass
	for _, p := range r.Passes {
		if p.Traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	col := func(ps []pass, f func(pass) float64) []float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = f(p)
		}
		return v
	}
	if !r.Traced {
		r.Metrics[mSetup] = median(col(untraced, func(p pass) float64 { return p.SetupS }))
		r.Metrics[mRate] = median(col(untraced, func(p pass) float64 { return float64(p.Insts) / p.PassS }))
		// A pass that failed outright simulated nothing; max keeps the
		// ratio finite, and the failure is counted anyway.
		r.Metrics[mCPU] = median(col(untraced, func(p pass) float64 { return 1e9 * p.CPUS / float64(max(1, p.Insts)) }))
		r.Metrics[mPeakRSS] = median(col(untraced, func(p pass) float64 { return p.PeakRSSMB }))
		for _, g := range gated {
			if g.workload == r.Workload {
				r.Metrics[g.name] = median(col(untraced, func(p pass) float64 { return p.Layer[g.name] }))
			}
		}
		r.frontierRecall(gold)
		return
	}
	// Per-layer: what can be measured with tracing off (counters, client
	// timings, the real daemon's figures) comes from the untraced passes;
	// only what needs spans comes from the traced ones.
	for name := range perLayerUnits {
		reported := func(ps []pass) []float64 {
			var v []float64
			for _, p := range ps {
				if x, ok := p.Layer[name]; ok {
					v = append(v, x)
				}
			}
			return v
		}
		v := reported(untraced)
		if len(v) == 0 {
			v = reported(traced)
		}
		r.Metrics[name] = median(v)
	}
	if u := median(col(untraced, func(p pass) float64 { return p.PassS })); u > 0 {
		t := median(col(traced, func(p pass) float64 { return p.PassS }))
		r.Metrics["proc.trace_overhead_pct"] = 100 * (t/u - 1)
	}
	r.frontierRecall(gold)
}

// frontierRecall holds the funnel's frontier to the golden exhaustive
// one; -1 says there is no reference frontier for these inputs.
func (r *runResult) frontierRecall(gold *golden) {
	if r.Workload != wExplore {
		return
	}
	r.Metrics["dse.frontier_recall"] = -1
	if gold != nil {
		r.Metrics["dse.frontier_recall"] = recall(gold.ExploreFrontier, r.Passes[0].Frontier)
	}
}

// recallTolerance is how far below a reference point's IPC a returned
// point of no larger area may fall and still count as finding it. The
// area model ignores buses and hop latency, so the space holds
// equal-area configurations whose IPCs differ by a few tenths of a
// percent; which of those twins a frontier names is not a difference a
// user would act on.
const recallTolerance = 0.01

// recall is the fraction of the reference frontier the returned frontier
// found: a reference point counts when some returned point costs no more
// area and reaches its IPC within recallTolerance.
func recall(want, got []frontierPoint) float64 {
	if len(want) == 0 {
		return 0
	}
	n := 0
	for _, w := range want {
		for _, g := range got {
			if g.Area <= w.Area && g.IPC >= w.IPC*(1-recallTolerance) {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(want))
}
