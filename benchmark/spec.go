package main

import "math"

// Workload names, in the order a set interleaves them. The reasons each
// was chosen live in BENCHMARK.json (and benchmark/README.md); the
// agreement test pins the two lists to each other.
const (
	wFig6    = "fig6_grid"
	wMixes   = "unique_mixes"
	wService = "service_sweep"
	wExplore = "explore_funnel"
)

var workloadNames = []string{wFig6, wMixes, wService, wExplore}

// End-to-end metrics: every workload reports every one of them, from
// untraced passes only.
const (
	mSetup   = "setup_s"
	mRate    = "sim_inst_per_s"
	mCPU     = "cpu_ns_per_inst"
	mPeakRSS = "peak_rss_mb"
)

var endToEndUnits = map[string]string{
	mSetup:   "s",
	mRate:    "1/s",
	mCPU:     "ns",
	mPeakRSS: "MB",
}

// gatedMetric is a per-layer metric `compare` holds to a bound like an
// end-to-end one, on the one workload it exists on.
type gatedMetric struct {
	workload, name string
	bound          float64 // share of set a's median; 0 = must repeat exactly
}

// gated are the issue's end-to-end metrics that one workload alone can
// report. The driver's contract has every workload print every end-to-end
// metric, never 0, so BENCHMARK.json lists them per-layer (direction, no
// bound) and the bounds live here. Every untraced run measures them, on
// the real daemon and the untraced funnel, so a set has three values of
// each to judge a spread by. The service's phases are a tenth of a second
// to three seconds long and their three values range 6 to 30 % on this
// shared host, so the issue's 8-10 % would rarely resolve; 15 % does in
// about half the sets.
var gated = []gatedMetric{
	{wService, "server.cold_sweep_s", 0.15},
	{wService, "server.restart_sweep_s", 0.15},
	{wService, "server.hot_submit_p50_ms", 0.15},
	{wService, "server.hot_submits_per_s", 0.15},
	// The funnel's time against the fixed work of the whole grid, so a
	// funnel that simulates more candidates than before is slower here
	// even when each simulation is as fast (sim_inst_per_s divides by the
	// work done and would not move).
	{wExplore, "dse.effective_inst_per_s", 0.10},
	// Simulated against simulated: these repeat exactly, at any seed.
	{wExplore, "dse.sampled_ipc_err_mean_pct", 0},
	{wExplore, "dse.twin_mape_pct", 0},
	{wExplore, "dse.frontier_recall", 0},
}

// perLayerUnits declares every per-layer metric a traced run prints. A
// workload that never enters a layer reports 0 for it.
var perLayerUnits = map[string]string{
	"workload.parse_s":         "s",
	"workload.gen_ns_per_inst": "ns",
	"synth.gen_ns_per_inst":    "ns",

	"harness.trace_materialize_s": "s",
	"harness.trace_cache_hits":    "count",
	"harness.trace_cache_misses":  "count",
	"harness.trace_share_ratio":   "ratio",
	"harness.trace_cache_mb":      "MB",
	"harness.execute_self_s":      "s",
	"harness.batch_groups":        "count",
	"harness.batch_members":       "count",
	"harness.execute_sampled_s":   "s",
	"harness.sampled_runs":        "count",
	"harness.sampled_windows":     "count",

	"core.machine_setup_s":    "s",
	"core.warmup_s":           "s",
	"core.simulate_s":         "s",
	"core.host_ns_per_inst":   "ns",
	"core.ff_insts":           "count",
	"core.detailed_insts":     "count",
	"core.blocking_share_pct": "%",

	"core.sim_cycles":             "count",
	"core.sim_committed":          "count",
	"core.sim_ipc":                "1/cycle",
	"core.sim_comms_per_inst":     "ratio",
	"core.sim_comm_wait_per_comm": "cycles",
	"core.sim_nready_per_cycle":   "ratio",
	"core.sim_mispredict_rate":    "ratio",
	"core.sim_stall_iq":           "cycles",
	"core.sim_stall_regs":         "cycles",
	"core.sim_stall_rob":          "cycles",
	"core.sim_stall_lsq":          "cycles",
	"core.sim_stall_comm":         "cycles",
	"core.sim_stall_fetch":        "cycles",
	"core.fig6_speedup_avg_pct":   "%",
	"core.fig6_speedup_int_pct":   "%",
	"core.fig6_speedup_fp_pct":    "%",

	"results.key_us_per_op":    "us",
	"results.encode_us_per_op": "us",
	"results.store_puts":       "count",
	"results.store_put_s":      "s",
	"results.store_gets":       "count",
	"results.store_get_s":      "s",
	"results.store_hit_ratio":  "ratio",
	"results.disk_mb":          "MB",

	"server.cold_sweep_s":            "s",
	"server.restart_sweep_s":         "s",
	"server.restart_ready_s":         "s",
	"server.sweep_submit_ms":         "ms",
	"server.poll_p50_ms":             "ms",
	"server.polls":                   "count",
	"server.queue_age_mean_ms":       "ms",
	"server.worker_complete_mean_ms": "ms",
	"server.runs_started":            "count",
	"server.restart_runs_started":    "count",
	"server.cache_hits":              "count",
	"server.hot_submits_per_s":       "1/s",
	"server.hot_submit_p50_ms":       "ms",
	"server.hot_submit_tail_ms":      "ms",
	"server.hot_submit_tail_pct":     "%",
	"server.hot_submit_max_ms":       "ms",
	"server.hot_samples":             "count",
	"server.daemon_cpu_s":            "s",

	"journal.entries":          "count",
	"journal.checkpoints":      "count",
	"journal.replayed":         "count",
	"journal.append_us_per_op": "us",

	"predict.profile_s":           "s",
	"predict.profiles_built":      "count",
	"predict.predict_us_per_call": "us",

	"dse.effective_inst_per_s":     "1/s",
	"dse.explore_self_s":           "s",
	"dse.evaluate_s":               "s",
	"dse.candidates":               "count",
	"dse.twin_predictions":         "count",
	"dse.sims_avoided_frac":        "ratio",
	"dse.sampled_sims":             "count",
	"dse.exact_confirms":           "count",
	"dse.cache_hits":               "count",
	"dse.frontier_size":            "count",
	"dse.sampled_ipc_err_mean_pct": "%",
	"dse.twin_mape_pct":            "%",
	"dse.frontier_recall":          "ratio",

	"proc.pass_s":             "s",
	"proc.cpu_user_s":         "s",
	"proc.cpu_sys_s":          "s",
	"proc.gc_pause_ms":        "ms",
	"proc.heap_alloc_mb":      "MB",
	"proc.span_coverage_pct":  "%",
	"proc.trace_overhead_pct": "%",
}

// sizes is the amount of work in one pass of each workload. The full
// sizes are cut from the issue's (200k-instruction grid, 1M-instruction
// exploration) so that one pass takes 3 to 5 s on two cores and a
// 20-second run holds several: the driver's time cap allows about 35 s
// per run, and the issue says to cut instructions before workloads.
type sizes struct {
	gridInsts, gridWarm       uint64
	mixInsts, mixWarm         uint64
	mixes                     [3]int // one-, two- and four-stream workload counts
	hotSubmits, hotDiscard    int
	exploreInsts, exploreWarm uint64
}

func sizesAt(scale float64) sizes {
	n := func(v float64) uint64 { return uint64(math.Max(1, math.Round(v*scale))) }
	return sizes{
		gridInsts: n(40_000), gridWarm: n(10_000),
		mixInsts: n(30_000), mixWarm: n(6_000),
		mixes:      [3]int{int(n(40)), int(n(24)), int(n(12))},
		hotSubmits: int(n(8_000)), hotDiscard: int(n(500)),
		exploreInsts: n(250_000), exploreWarm: n(25_000),
	}
}
