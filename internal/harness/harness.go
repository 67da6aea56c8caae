// Package harness runs simulation experiments: it expands (configuration ×
// workload) grids, fans the runs across a worker pool, and reduces the
// per-workload statistics into the suite-level aggregates (AVERAGE / INT /
// FP) that the paper's figures plot. A workload is one or more
// deterministic instruction streams (workload.Spec); multi-stream
// workloads run all streams on one machine under ICOUNT fetch
// arbitration.
package harness

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Run is the result of simulating one workload on one configuration.
type Run struct {
	Config core.Config
	// Workload is the canonical workload label (the bare program name
	// for single-stream runs, the "+"-joined spec string for mixes).
	Workload string
	Class    workload.ProgramClass
	Stats    core.Stats
	// Sampled is set when the run executed with interval sampling:
	// Stats are extrapolated from the measured windows, and Sampled
	// carries the window accounting and per-metric standard errors.
	// Exact runs leave it nil.
	Sampled *SampledInfo
	Err     error
}

// Key identifies a run within a result set.
type Key struct {
	Config string
	// Workload is the workload's canonical label (workload.Spec.Name);
	// for single-program runs it is the program name.
	Workload string
}

// Request describes one simulation to perform.
type Request struct {
	Config core.Config
	// Workload names the instruction streams to run: one stream is the
	// classic single-program experiment, several are the multi-programmed
	// mode (independent streams sharing the machine under ICOUNT fetch
	// arbitration).
	Workload workload.Spec
	// Insts is the measured instruction budget per stream; a stream's
	// own Insts overrides it.
	Insts uint64
	// Warmup is the number of instructions to run before resetting
	// statistics (the paper skips each program's initialization phase).
	// It is a machine-wide commit count, drawn from the streams by the
	// same arbitration as the measured window.
	Warmup uint64
	// Sampling selects the execution fidelity: the zero value is exact
	// cycle-accurate simulation of the full budget; an enabled value
	// runs SMARTS-style interval sampling (see driveSampled).
	Sampling Sampling
}

// machinePool recycles simulator machines across Execute calls: a reset
// machine reuses its predecessor's queue, calendar, cache and predictor
// slabs, so the steady-state grid and service paths stop paying
// per-request construction. Reset is observationally identical to New
// (guarded by TestMachineReuseDeterminism). Machines enter the pool
// without their streams, so a pooled machine never keeps a released
// trace alive.
var machinePool sync.Pool

// Execute runs one simulation request synchronously: prepare sets the
// machine up over the request's streams, and the request's fidelity picks
// how it is driven — exact (warm up, reset statistics, run to the end) or
// sampled (see driveSampled). Multi-stream workloads run every stream on
// one machine under ICOUNT fetch arbitration, with per-stream statistics
// attached to the returned Stats. Execute holds the request's traces for
// its own duration only: a caller with more runs of the same streams to
// come (GridRuns, an exploration, the server's queue) holds them across
// the runs, or each run generates its traces again.
func Execute(req Request) Run {
	DefaultTraceCache.Hold(req.Workload)
	defer DefaultTraceCache.Release(req.Workload)
	out := Run{Config: req.Config, Workload: req.Workload.Name()}
	var m *core.Machine
	m, out.Class, out.Err = prepare(req)
	if out.Err != nil {
		return out
	}
	defer func() {
		m.DropStreams()
		machinePool.Put(m)
	}()
	if req.Sampling.Enabled() {
		out.Stats, out.Sampled, out.Err = driveSampled(m, req)
	} else {
		out.Stats, out.Err = driveExact(m, req.Warmup)
	}
	return out
}

// prepare is the one way to set a machine up for a request: validate,
// resolve the workload class, take each stream's prefix from the shared
// trace cache (materialized once per program×seed and replayed across
// configurations and fidelities; StreamBudgets is the length), and reset a
// pooled machine over them. Streams are built before a machine is taken
// from the pool, so a materialization failure never discards a pooled
// machine.
func prepare(req Request) (*core.Machine, workload.ProgramClass, error) {
	spec := req.Workload
	if err := req.Sampling.Validate(); err != nil {
		return nil, 0, err
	}
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	cls, err := spec.Class()
	if err != nil {
		return nil, 0, err
	}
	budgets := StreamBudgets(spec, req.Insts, req.Warmup)
	streams := make([]trace.Stream, len(spec.Streams))
	for i, s := range spec.Streams {
		if streams[i], err = DefaultTraceCache.Stream(s.Program, s.Seed, budgets[i]); err != nil {
			return nil, cls, err
		}
	}
	m, _ := machinePool.Get().(*core.Machine)
	if m != nil {
		err = m.ResetMulti(req.Config, streams)
	} else {
		m, err = core.NewMulti(req.Config, streams)
	}
	if err != nil {
		return nil, cls, err
	}
	return m, cls, nil
}

// driveExact runs the warm-up instructions through the machine (the paper
// skips each program's initialization phase), resets statistics, and
// simulates the rest of the streams cycle-accurately.
func driveExact(m *core.Machine, warmup uint64) (core.Stats, error) {
	if warmup > 0 {
		if err := m.RunCommitted(warmup); err != nil {
			return core.Stats{}, err
		}
		m.ResetStats()
	}
	return m.Run(0)
}

// streamBudget resolves one stream's measured instruction budget.
func streamBudget(s workload.StreamSpec, def uint64) uint64 {
	if s.Insts != 0 {
		return s.Insts
	}
	return def
}

// StreamBudgets returns the instruction prefix each stream of spec must
// materialize for a request with the given request-level budgets: the
// measured budget (the stream's own Insts, or the request default) plus
// an even share of the warm-up window. It is the single definition of
// per-stream trace length: prepare asks the trace cache for exactly this
// prefix, so anything that sizes a stream agrees with what the
// simulations read.
func StreamBudgets(spec workload.Spec, insts, warmup uint64) []uint64 {
	n := uint64(len(spec.Streams))
	out := make([]uint64, n)
	for i, s := range spec.Streams {
		warm := warmup / n
		if uint64(i) < warmup%n {
			warm++
		}
		out[i] = warm + streamBudget(s, insts)
	}
	return out
}

// Expand turns a (configuration × workload) grid into the flat request
// list Grid executes, in configuration-major order. Workloads are spec
// strings (see workload.ParseSpec): a bare program name is the classic
// single run, "gcc+swim" a two-stream mix. It is the single definition
// of grid semantics: the CLI tools and the ringsimd sweep API both
// expand through here, so a sweep submitted over HTTP names exactly the
// same simulations as the equivalent local Grid call.
func Expand(configs []core.Config, workloads []string, insts, warmup uint64) ([]Request, error) {
	specs := make([]workload.Spec, len(workloads))
	for i, w := range workloads {
		spec, err := workload.ParseSpec(w)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	reqs := make([]Request, 0, len(configs)*len(specs))
	for _, cfg := range configs {
		for _, spec := range specs {
			reqs = append(reqs, Request{Config: cfg, Workload: spec, Insts: insts, Warmup: warmup})
		}
	}
	return reqs, nil
}

// ExpandSampled is Expand at a selected execution fidelity: every
// request in the grid carries the sampling parameters (the zero value
// keeps the grid exact). Fidelity is part of the request's content key,
// so an exact and a sampled expansion of the same grid never share
// cached results.
func ExpandSampled(configs []core.Config, workloads []string, insts, warmup uint64, sp Sampling) ([]Request, error) {
	reqs, err := Expand(configs, workloads, insts, warmup)
	if err != nil {
		return nil, err
	}
	if sp.Enabled() {
		for i := range reqs {
			reqs[i].Sampling = sp
		}
	}
	return reqs, nil
}

// Grid runs every (config, workload) pair across a fixed worker pool and
// returns results keyed by configuration name and workload label. The
// order of workers is nondeterministic but each simulation is fully
// deterministic, so the result set is reproducible.
func Grid(configs []core.Config, workloads []string, insts, warmup uint64) (map[Key]Run, error) {
	reqs, err := Expand(configs, workloads, insts, warmup)
	if err != nil {
		return nil, err
	}
	results := GridRunsN(reqs, runtime.GOMAXPROCS(0))
	out := make(map[Key]Run, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", r.Config.Name, r.Workload, r.Err)
		}
		out[Key{Config: r.Config.Name, Workload: r.Workload}] = r
	}
	return out, nil
}

// GridRuns is GridRunsN on GOMAXPROCS workers. Its second argument is
// ignored; it stays for the benchmark program, which still passes it.
func GridRuns(reqs []Request, _ int) []Run {
	return GridRunsN(reqs, runtime.GOMAXPROCS(0))
}

// GridRunsN executes the requests on a pool of workers (at least one, at
// most one per request), returning results in request order. Every worker
// takes the oldest unstarted request from one workload-major pool (see
// gridPool), so the workers share one workload's trace — the first run to
// reach each stream materializes it and the rest replay it — and move to
// the next workload together. Every stream the list names is held from
// the start and released run by run, so each is materialized once however
// the list orders its runs, and freed as soon as the last run naming it is
// done: resident traces follow the workers, not the length of the list. It
// is the parallel core of Grid, shared by the fleet worker (which bounds
// workers to its advertised capacity), the explorer and the CLI.
func GridRunsN(reqs []Request, workers int) []Run {
	results := make([]Run, len(reqs))
	for i := range reqs {
		DefaultTraceCache.Hold(reqs[i].Workload)
	}
	pool := newGridPool(reqs)
	pool.count()
	workers = min(max(workers, 1), len(reqs))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				ri, ok := pool.take()
				if !ok {
					return
				}
				results[ri] = Execute(reqs[ri])
				DefaultTraceCache.Release(reqs[ri].Workload)
			}
		}()
	}
	wg.Wait()
	return results
}

// Metric extracts one scalar from a run's statistics.
type Metric func(*core.Stats) float64

// Suite selects which programs an aggregate covers.
type Suite int

const (
	// SuiteAll averages over every program ("AVERAGE" in the figures).
	SuiteAll Suite = iota
	// SuiteInt averages over the integer programs.
	SuiteInt
	// SuiteFP averages over the FP programs.
	SuiteFP
)

// String returns the paper's label for the suite.
func (s Suite) String() string {
	switch s {
	case SuiteInt:
		return "INT"
	case SuiteFP:
		return "FP"
	default:
		return "AVERAGE"
	}
}

// programsIn returns the program names a suite covers, sorted.
func programsIn(s Suite) []string {
	switch s {
	case SuiteInt:
		return workload.SuiteNames(workload.ClassInt)
	case SuiteFP:
		return workload.SuiteNames(workload.ClassFP)
	default:
		all := append(workload.SuiteNames(workload.ClassInt), workload.SuiteNames(workload.ClassFP)...)
		sort.Strings(all)
		return all
	}
}

// Aggregate computes the arithmetic mean of metric over the suite's
// programs for the named configuration.
func Aggregate(res map[Key]Run, config string, s Suite, metric Metric) float64 {
	progs := programsIn(s)
	var sum float64
	var n int
	for _, p := range progs {
		r, ok := res[Key{Config: config, Workload: p}]
		if !ok {
			continue
		}
		st := r.Stats
		sum += metric(&st)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Speedup computes the mean over the suite of per-program IPC ratios
// (test/base - 1), the way the paper reports speedups. Programs whose
// baseline run is degenerate (zero IPC — nothing committed, so the ratio
// is undefined) are excluded from the mean and logged; use SpeedupDetail
// to inspect them programmatically.
func Speedup(res map[Key]Run, testCfg, baseCfg string, s Suite) float64 {
	sp, degenerate := SpeedupDetail(res, testCfg, baseCfg, s)
	if len(degenerate) > 0 {
		log.Printf("harness: speedup %s vs %s (%s): excluded degenerate zero-IPC baseline runs: %s",
			testCfg, baseCfg, s, strings.Join(degenerate, ", "))
	}
	return sp
}

// SpeedupDetail is Speedup plus an explicit marker for degenerate runs:
// it returns the mean speedup over the well-defined programs and the
// names of programs excluded because their baseline committed nothing
// (IPC zero). A silent skip would inflate the aggregate by whatever the
// broken program would have contributed; the caller can now detect it.
func SpeedupDetail(res map[Key]Run, testCfg, baseCfg string, s Suite) (speedup float64, degenerate []string) {
	progs := programsIn(s)
	var sum float64
	var n int
	for _, p := range progs {
		t, okT := res[Key{Config: testCfg, Workload: p}]
		b, okB := res[Key{Config: baseCfg, Workload: p}]
		if !okT || !okB {
			continue
		}
		bst, tst := b.Stats, t.Stats
		if bst.IPC() == 0 {
			degenerate = append(degenerate, p)
			continue
		}
		sum += tst.IPC()/bst.IPC() - 1
		n++
	}
	if n == 0 {
		return 0, degenerate
	}
	return sum / float64(n), degenerate
}

// PaperConfigs returns the ten Table 3 configurations in the paper's order.
func PaperConfigs() []core.Config {
	type row struct {
		arch              core.ArchKind
		clusters, iw, bus int
	}
	rows := []row{
		{core.ArchConv, 4, 2, 1},
		{core.ArchConv, 8, 1, 1},
		{core.ArchConv, 8, 1, 2},
		{core.ArchConv, 8, 2, 1},
		{core.ArchConv, 8, 2, 2},
		{core.ArchRing, 4, 2, 1},
		{core.ArchRing, 8, 1, 1},
		{core.ArchRing, 8, 1, 2},
		{core.ArchRing, 8, 2, 1},
		{core.ArchRing, 8, 2, 2},
	}
	out := make([]core.Config, len(rows))
	for i, r := range rows {
		out[i] = core.MustPaperConfig(r.arch, r.clusters, r.iw, r.bus)
	}
	return out
}

// ConfigPairs returns the (Ring, Conv) configuration-name pairs the
// speedup figures compare, in the paper's plotting order.
func ConfigPairs() [][2]string {
	return [][2]string{
		{"Ring_4clus_1bus_2IW", "Conv_4clus_1bus_2IW"},
		{"Ring_8clus_2bus_1IW", "Conv_8clus_2bus_1IW"},
		{"Ring_8clus_1bus_1IW", "Conv_8clus_1bus_1IW"},
		{"Ring_8clus_2bus_2IW", "Conv_8clus_2bus_2IW"},
		{"Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW"},
	}
}
