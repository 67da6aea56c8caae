package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
)

// Metrics counts what the service has done since start. Every counter
// is monotonic; seriesTable exports them, with the gauges it samples at
// scrape time.
type Metrics struct {
	// RunsSubmitted counts run submissions accepted (direct or as sweep
	// members), including ones deduplicated against in-flight work.
	RunsSubmitted atomic.Uint64
	// RunsStarted counts simulations the daemon's own workers leased
	// (cache misses); remote ones are fleet.Stats.RemoteCompleted.
	RunsStarted atomic.Uint64
	// RunsCompleted counts simulations that finished successfully.
	RunsCompleted atomic.Uint64
	// RunsFailed counts simulations that ended in error.
	RunsFailed atomic.Uint64
	// CacheHits counts submissions served from the result store without
	// simulating.
	CacheHits atomic.Uint64
	// Deduped counts submissions coalesced onto an identical run already
	// queued or executing.
	Deduped atomic.Uint64
	// SweepsSubmitted counts accepted sweep submissions.
	SweepsSubmitted atomic.Uint64
	// QueueRejected counts submissions refused because the job queue was
	// full.
	QueueRejected atomic.Uint64
	// StorePutErrors counts finished records the result store refused to
	// write (a failing disk); the runs themselves still finish.
	StorePutErrors atomic.Uint64
	// ExploresSubmitted counts accepted design-space explorations.
	ExploresSubmitted atomic.Uint64
	// ExplorePoints counts design points scored by explorations.
	ExplorePoints atomic.Uint64
	// ExploreSims counts program simulations run on behalf of
	// explorations (cache misses from the exploration's point of view).
	ExploreSims atomic.Uint64
	// ExploreCacheHits counts exploration program runs answered without
	// a new simulation.
	ExploreCacheHits atomic.Uint64
	// TwinPredictions counts closed-form twin scorings (one per program
	// per candidate of a twin-gated exploration).
	TwinPredictions atomic.Uint64
	// TwinSimsAvoided counts program simulations the twin gate skipped
	// (candidates predicted off-frontier that never reached the queue).
	TwinSimsAvoided atomic.Uint64
	// TwinExplores counts twin-gated explorations completed; denominator
	// of the mean MAPE gauge.
	TwinExplores atomic.Uint64
	// twinMapeMillis accumulates per-exploration predicted-vs-simulated
	// MAPE in thousandths of a percent, so the mean stays integral and
	// lock-free.
	twinMapeMillis atomic.Uint64

	// queueAge times jobs from enqueue to lease; workerComplete from
	// lease grant to completion, across every worker, local or remote.
	queueAge, workerComplete histogram
}

// observeTwinMAPE folds one completed twin exploration's MAPE (percent)
// into the running mean.
func (m *Metrics) observeTwinMAPE(mapePct float64) {
	m.TwinExplores.Add(1)
	if mapePct > 0 {
		m.twinMapeMillis.Add(uint64(mapePct * 1000))
	}
}

// ratio is part/whole, or 0 before anything has been counted.
func ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// latencyBuckets are the shared fixed histogram bounds (seconds) for
// queue age and worker completion latency: sub-5ms cache settles
// through multi-minute full-budget simulations.
var latencyBuckets = [...]float64{
	0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// histogram is a fixed-bucket, lock-free cumulative histogram over
// latencyBuckets in Prometheus's exposition shape. Observations are
// atomic adds, so it sits on the worker hot path without contention;
// the sum is tracked in microseconds to stay integral. The zero value
// is ready to use.
type histogram struct {
	counts    [len(latencyBuckets) + 1]atomic.Uint64 // last is +Inf
	sumMicros atomic.Uint64
	total     atomic.Uint64
}

// observe records one value in seconds.
func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	h.counts[i].Add(1)
	h.total.Add(1)
	if micros := seconds * 1e6; micros > 0 && !math.IsInf(micros, 1) {
		h.sumMicros.Add(uint64(micros))
	}
}

// write renders the samples of the series in text exposition format.
func (h *histogram) write(w io.Writer, name string) {
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.total.Load())
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumMicros.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
}

// scrapeState is what one /metrics render reads: the daemon's counters
// and one snapshot of each subsystem's stats, so that the rows of one
// subsystem agree with each other.
type scrapeState struct {
	m        *Metrics
	workers  int
	fleet    fleet.Stats
	journal  journal.Stats
	profiles harness.ProfileCacheStats
	traces   harness.TraceCacheStats
	sampled  harness.SampledStats
}

// series is one exported /metrics family. Counters and gauges read a
// value; histograms name the histogram that renders their samples.
type series struct {
	name, help, kind string
	value            func(*scrapeState) float64
	hist             func(*scrapeState) *histogram
}

// num reads a count as a sample value.
func num[T int | uint64](v T) float64 { return float64(v) }

// seriesTable is the only declaration of the exported series: /metrics
// renders it in this order.
var seriesTable = []series{
	{name: "ringsimd_runs_submitted_total", help: "Run submissions accepted.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.RunsSubmitted.Load()) }},
	{name: "ringsimd_runs_started_total", help: "Simulations the daemon's own workers started (cache misses).", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.RunsStarted.Load()) }},
	{name: "ringsimd_runs_completed_total", help: "Simulations finished successfully.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.RunsCompleted.Load()) }},
	{name: "ringsimd_runs_failed_total", help: "Simulations that ended in error.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.RunsFailed.Load()) }},
	{name: "ringsimd_cache_hits_total", help: "Submissions served from the result store.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.CacheHits.Load()) }},
	{name: "ringsimd_deduped_total", help: "Submissions coalesced onto in-flight runs.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.Deduped.Load()) }},
	{name: "ringsimd_sweeps_submitted_total", help: "Sweep submissions accepted.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.SweepsSubmitted.Load()) }},
	{name: "ringsimd_queue_rejected_total", help: "Submissions refused on a full queue.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.QueueRejected.Load()) }},
	{name: "ringsimd_store_put_errors_total", help: "Finished records the result store failed to write.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.StorePutErrors.Load()) }},
	{name: "ringsimd_explores_submitted_total", help: "Design-space explorations accepted.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.ExploresSubmitted.Load()) }},
	{name: "ringsimd_explore_points_total", help: "Design points scored by explorations.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.ExplorePoints.Load()) }},
	{name: "ringsimd_explore_sims_total", help: "Simulations run on behalf of explorations.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.ExploreSims.Load()) }},
	{name: "ringsimd_explore_cache_hits_total", help: "Exploration program runs served without simulating.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.ExploreCacheHits.Load()) }},
	{name: "ringsimd_twin_predictions_total", help: "Closed-form analytical-twin candidate scorings.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.TwinPredictions.Load()) }},
	{name: "ringsimd_twin_sims_avoided_total", help: "Program simulations the twin gate skipped.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.m.TwinSimsAvoided.Load()) }},
	// The pending pool is the fleet's: Pending moves in every mode, the
	// worker and lease figures only with remote workers.
	{name: "ringsimd_queue_len", help: "Jobs waiting in the pending pool for a local or remote worker.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.fleet.Pending) }},
	{name: "ringsimd_workers", help: "Size of the simulation worker pool.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.workers) }},
	{name: "ringsimd_fleet_workers", help: "Remote fleet workers currently registered.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.fleet.Workers) }},
	{name: "ringsimd_fleet_capacity", help: "Summed concurrent-simulation capacity of registered workers.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.fleet.Capacity) }},
	{name: "ringsimd_fleet_pending", help: "Jobs waiting in the fleet pool for any worker.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.fleet.Pending) }},
	{name: "ringsimd_fleet_leases_outstanding", help: "Jobs currently out under a remote lease.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.fleet.Leased) }},
	{name: "ringsimd_fleet_requeues_total", help: "Leases that expired or died with their worker and were requeued.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.fleet.Requeues) }},
	{name: "ringsimd_fleet_remote_runs_total", help: "Run records accepted from remote workers.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.fleet.RemoteCompleted) }},
	{name: "ringsimd_fleet_poisoned_total", help: "Jobs parked in the poisoned lot after burning their attempt cap.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.fleet.PoisonedTotal) }},
	{name: "ringsimd_fleet_poisoned_parked", help: "Jobs currently parked in the poisoned lot.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.fleet.PoisonedParked) }},
	// The durable control plane's activity; all zeros without a journal.
	{name: "ringsimd_journal_entries_total", help: "Control-plane journal records appended.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.journal.Entries) }},
	{name: "ringsimd_journal_checkpoints_total", help: "Journal log compactions written.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.journal.Checkpoints) }},
	{name: "ringsimd_journal_replayed_total", help: "Journal records and open manifests recovered at startup.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.journal.Replayed) }},
	{name: "ringsimd_journal_torn_total", help: "Truncated trailing journal records discarded at recovery.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.journal.Torn) }},
	// Twin profile cache: the analytical gate's trace summaries, cached
	// on disk next to the result store so warm explorations skip the
	// profiling pass too.
	{name: "ringsimd_profile_cache_entries", help: "Trace summary profiles resident in memory.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.profiles.Entries) }},
	{name: "ringsimd_profile_cache_hits_total", help: "Profile requests served from memory.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.profiles.Hits) }},
	{name: "ringsimd_profile_cache_disk_hits_total", help: "Profile requests served from the disk layer.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.profiles.DiskHits) }},
	{name: "ringsimd_profile_cache_misses_total", help: "Profile requests that ran the summarizer.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.profiles.Misses) }},
	// Trace-cache occupancy and service counters. Traces live only while
	// queued or running work holds them, so entries and bytes follow the
	// load and return to zero when the daemon is idle; with synthetic
	// specs the workload space is unbounded, so generation (misses) is a
	// first-class cost worth watching.
	{name: "ringsimd_trace_cache_entries", help: "Materialized workload streams resident in the trace cache.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.traces.Entries) }},
	{name: "ringsimd_trace_cache_held", help: "Workload streams some queued or running work holds, materialized or not.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.traces.Held) }},
	{name: "ringsimd_trace_cache_bytes", help: "Memory allocated for materialized traces: the packed stores' segments of encoded records, about 6 bytes an instruction.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.traces.Bytes) }},
	{name: "ringsimd_trace_cache_peak_bytes", help: "High-water mark of ringsimd_trace_cache_bytes since the process started.", kind: "gauge", value: func(x *scrapeState) float64 { return num(x.traces.PeakBytes) }},
	{name: "ringsimd_trace_cache_hits_total", help: "Stream requests served from an existing trace-cache entry.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.traces.Hits) }},
	{name: "ringsimd_trace_cache_misses_total", help: "Stream requests that materialized a new entry or fell back to a private generator.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.traces.Misses) }},
	{name: "ringsimd_trace_cache_fallbacks_total", help: "Stream requests the instruction budget turned away to a private generator.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.traces.Fallbacks) }},
	{name: "ringsimd_trace_cache_dropped_total", help: "Trace-cache entries freed when their last holder released them.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.traces.Dropped) }},
	// Sampled simulation: how much of the instruction volume ran as cheap
	// functional fast-forward instead of detailed timing.
	{name: "ringsimd_sampled_runs_total", help: "Simulations executed at sampled fidelity.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.sampled.Runs) }},
	{name: "ringsimd_sampled_ff_insts_total", help: "Instructions retired by functional fast-forward in sampled runs.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.sampled.FFInsts) }},
	{name: "ringsimd_sampled_detailed_insts_total", help: "Instructions retired by detailed windows in sampled runs.", kind: "counter", value: func(x *scrapeState) float64 { return num(x.sampled.DetailedInsts) }},
	// The denominator is answered work — cache hits plus finished
	// simulations — not RunsSubmitted, which also counts in-flight and
	// deduplicated submissions and would depress the ratio under load.
	{name: "ringsimd_cache_hit_ratio", help: "Fraction of answered run submissions served from the result store.", kind: "gauge", value: func(x *scrapeState) float64 {
		hits := x.m.CacheHits.Load()
		return ratio(hits, hits+x.m.RunsCompleted.Load()+x.m.RunsFailed.Load())
	}},
	{name: "ringsimd_explore_cache_hit_ratio", help: "Fraction of exploration program runs that cost no new simulation.", kind: "gauge", value: func(x *scrapeState) float64 {
		hits := x.m.ExploreCacheHits.Load()
		return ratio(hits, hits+x.m.ExploreSims.Load())
	}},
	{name: "ringsimd_twin_mape", help: "Mean predicted-vs-simulated IPC error (percent) across twin-gated explorations.", kind: "gauge", value: func(x *scrapeState) float64 {
		return ratio(x.m.twinMapeMillis.Load(), x.m.TwinExplores.Load()) / 1000
	}},
	{name: "ringsimd_queue_age_seconds", help: "Time jobs spent queued before a worker began them.", kind: "histogram", hist: func(x *scrapeState) *histogram { return &x.m.queueAge }},
	{name: "ringsimd_worker_complete_seconds", help: "Per-worker simulation completion latency (lease grant to completion).", kind: "histogram", hist: func(x *scrapeState) *histogram { return &x.m.workerComplete }},
}

// handleMetrics renders seriesTable in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	x := &scrapeState{
		m:        &s.metrics,
		workers:  s.opts.Workers,
		fleet:    s.fleet.Stats(),
		profiles: harness.DefaultProfileCache.Stats(),
		traces:   harness.DefaultTraceCache.Stats(),
		sampled:  harness.SampledStatsSnapshot(),
	}
	if s.opts.Journal != nil {
		x.journal = s.opts.Journal.Stats()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, r := range seriesTable {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", r.name, r.help, r.name, r.kind)
		if r.hist != nil {
			r.hist(x).write(w, r.name)
			continue
		}
		fmt.Fprintf(w, "%s %s\n", r.name, strconv.FormatFloat(r.value(x), 'f', -1, 64))
	}
}
