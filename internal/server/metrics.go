package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
)

// Metrics counts what the service has done since start. All fields are
// monotonic counters except QueueLen/Workers, which are gauges sampled at
// scrape time.
type Metrics struct {
	// RunsSubmitted counts run submissions accepted (direct or as sweep
	// members), including ones deduplicated against in-flight work.
	RunsSubmitted atomic.Uint64
	// RunsStarted counts simulations the daemon's own workers leased
	// (cache misses); remote ones are Fleet.RemoteCompleted.
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
}

// observeTwinMAPE folds one completed twin exploration's MAPE (percent)
// into the running mean.
func (m *Metrics) observeTwinMAPE(mapePct float64) {
	m.TwinExplores.Add(1)
	if mapePct > 0 {
		m.twinMapeMillis.Add(uint64(mapePct * 1000))
	}
}

// Snapshot is a point-in-time copy of the counters, JSON-encodable.
type Snapshot struct {
	RunsSubmitted   uint64 `json:"runs_submitted"`
	RunsStarted     uint64 `json:"runs_started"`
	RunsCompleted   uint64 `json:"runs_completed"`
	RunsFailed      uint64 `json:"runs_failed"`
	CacheHits       uint64 `json:"cache_hits"`
	Deduped         uint64 `json:"deduped"`
	SweepsSubmitted uint64 `json:"sweeps_submitted"`
	QueueRejected   uint64 `json:"queue_rejected"`
	StorePutErrors  uint64 `json:"store_put_errors"`
	QueueLen        int    `json:"queue_len"`
	Workers         int    `json:"workers"`

	ExploresSubmitted uint64 `json:"explores_submitted"`
	ExplorePoints     uint64 `json:"explore_points"`
	ExploreSims       uint64 `json:"explore_sims"`
	ExploreCacheHits  uint64 `json:"explore_cache_hits"`

	TwinPredictions uint64  `json:"twin_predictions"`
	TwinSimsAvoided uint64  `json:"twin_sims_avoided"`
	TwinExplores    uint64  `json:"twin_explores"`
	TwinMAPE        float64 `json:"twin_mape"`

	// Fleet is the pool snapshot. Pending (= QueueLen) moves in every
	// mode; the worker and lease figures are zero outside fleet mode.
	Fleet fleet.Stats `json:"fleet"`

	// Journal is the durable control plane's activity; all zeros without
	// a journal.
	Journal journal.Stats `json:"journal"`
}

// CacheHitRatio is the fraction of answered run submissions served from
// the result store (0 before anything has been answered). The
// denominator is answered work — cache hits plus finished simulations —
// not RunsSubmitted, which also counts in-flight and deduplicated
// submissions and would depress the ratio under load.
func (s Snapshot) CacheHitRatio() float64 {
	answered := s.CacheHits + s.RunsCompleted + s.RunsFailed
	if answered == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(answered)
}

// ExploreCacheHitRatio is the fraction of exploration program runs that
// cost no new simulation.
func (s Snapshot) ExploreCacheHitRatio() float64 {
	total := s.ExploreSims + s.ExploreCacheHits
	if total == 0 {
		return 0
	}
	return float64(s.ExploreCacheHits) / float64(total)
}

// Snapshot captures the current counter values.
func (m *Metrics) snapshot(workers int, fs fleet.Stats, js journal.Stats) Snapshot {
	return Snapshot{
		RunsSubmitted:   m.RunsSubmitted.Load(),
		RunsStarted:     m.RunsStarted.Load(),
		RunsCompleted:   m.RunsCompleted.Load(),
		RunsFailed:      m.RunsFailed.Load(),
		CacheHits:       m.CacheHits.Load(),
		Deduped:         m.Deduped.Load(),
		SweepsSubmitted: m.SweepsSubmitted.Load(),
		QueueRejected:   m.QueueRejected.Load(),
		StorePutErrors:  m.StorePutErrors.Load(),
		QueueLen:        fs.Pending,
		Workers:         workers,

		ExploresSubmitted: m.ExploresSubmitted.Load(),
		ExplorePoints:     m.ExplorePoints.Load(),
		ExploreSims:       m.ExploreSims.Load(),
		ExploreCacheHits:  m.ExploreCacheHits.Load(),

		TwinPredictions: m.TwinPredictions.Load(),
		TwinSimsAvoided: m.TwinSimsAvoided.Load(),
		TwinExplores:    m.TwinExplores.Load(),
		TwinMAPE:        meanTwinMAPE(m.twinMapeMillis.Load(), m.TwinExplores.Load()),

		Fleet:   fs,
		Journal: js,
	}
}

// meanTwinMAPE recovers the mean percentage from the milli-percent
// accumulator (0 before any twin exploration has completed).
func meanTwinMAPE(millis, explores uint64) float64 {
	if explores == 0 {
		return 0
	}
	return float64(millis) / 1000 / float64(explores)
}

// latencyBuckets are the shared fixed histogram bounds (seconds) for
// queue age and worker completion latency: sub-5ms cache settles
// through multi-minute full-budget simulations.
var latencyBuckets = []float64{
	0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// histogram is a fixed-bucket, lock-free cumulative histogram in
// Prometheus's exposition shape. Observations are atomic adds, so it
// sits on the worker hot path without contention; the sum is tracked in
// microseconds to stay integral.
type histogram struct {
	buckets   []float64
	counts    []atomic.Uint64 // len(buckets)+1; last is +Inf
	sumMicros atomic.Uint64
	total     atomic.Uint64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// observe records one value in seconds.
func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(h.buckets, seconds)
	h.counts[i].Add(1)
	h.total.Add(1)
	if micros := seconds * 1e6; micros > 0 && !math.IsInf(micros, 1) {
		h.sumMicros.Add(uint64(micros))
	}
}

// write renders the series in text exposition format. labels ("" or
// `worker="w3"`) is spliced into every sample; the caller writes the
// HELP/TYPE header once per family.
func (h *histogram) write(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, le := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.total.Load())
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumMicros.Load())/1e6)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total.Load())
		return
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumMicros.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
}

// labeledHistograms keys histograms by one label value (the worker id).
// The map mutex guards only lookup/insert; observations on the found
// histogram stay atomic.
type labeledHistograms struct {
	buckets []float64
	mu      sync.Mutex
	m       map[string]*histogram
}

func newLabeledHistograms(buckets []float64) *labeledHistograms {
	return &labeledHistograms{buckets: buckets, m: make(map[string]*histogram)}
}

func (l *labeledHistograms) observe(label string, seconds float64) {
	l.mu.Lock()
	h, ok := l.m[label]
	if !ok {
		h = newHistogram(l.buckets)
		l.m[label] = h
	}
	l.mu.Unlock()
	h.observe(seconds)
}

// snapshot lists the label values in sorted order with their histograms.
func (l *labeledHistograms) snapshot() ([]string, map[string]*histogram) {
	l.mu.Lock()
	defer l.mu.Unlock()
	labels := make([]string, 0, len(l.m))
	out := make(map[string]*histogram, len(l.m))
	for k, v := range l.m {
		labels = append(labels, k)
		out[k] = v
	}
	sort.Strings(labels)
	return labels, out
}

// metricRow is one counter or gauge of the exposition.
type metricRow struct {
	name, help, kind string
	val              uint64
}

// handleMetrics renders the counters in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rows := []metricRow{
		{"ringsimd_runs_submitted_total", "Run submissions accepted.", "counter", snap.RunsSubmitted},
		{"ringsimd_runs_started_total", "Simulations the daemon's own workers started (cache misses).", "counter", snap.RunsStarted},
		{"ringsimd_runs_completed_total", "Simulations finished successfully.", "counter", snap.RunsCompleted},
		{"ringsimd_runs_failed_total", "Simulations that ended in error.", "counter", snap.RunsFailed},
		{"ringsimd_cache_hits_total", "Submissions served from the result store.", "counter", snap.CacheHits},
		{"ringsimd_deduped_total", "Submissions coalesced onto in-flight runs.", "counter", snap.Deduped},
		{"ringsimd_sweeps_submitted_total", "Sweep submissions accepted.", "counter", snap.SweepsSubmitted},
		{"ringsimd_queue_rejected_total", "Submissions refused on a full queue.", "counter", snap.QueueRejected},
		{"ringsimd_store_put_errors_total", "Finished records the result store failed to write.", "counter", snap.StorePutErrors},
		{"ringsimd_explores_submitted_total", "Design-space explorations accepted.", "counter", snap.ExploresSubmitted},
		{"ringsimd_explore_points_total", "Design points scored by explorations.", "counter", snap.ExplorePoints},
		{"ringsimd_explore_sims_total", "Simulations run on behalf of explorations.", "counter", snap.ExploreSims},
		{"ringsimd_explore_cache_hits_total", "Exploration program runs served without simulating.", "counter", snap.ExploreCacheHits},
		{"ringsimd_twin_predictions_total", "Closed-form analytical-twin candidate scorings.", "counter", snap.TwinPredictions},
		{"ringsimd_twin_sims_avoided_total", "Program simulations the twin gate skipped.", "counter", snap.TwinSimsAvoided},
		{"ringsimd_queue_len", "Jobs waiting in the pending pool for a local or remote worker.", "gauge", uint64(snap.QueueLen)},
		{"ringsimd_workers", "Size of the simulation worker pool.", "gauge", uint64(snap.Workers)},
		{"ringsimd_fleet_workers", "Remote fleet workers currently registered.", "gauge", uint64(snap.Fleet.Workers)},
		{"ringsimd_fleet_capacity", "Summed concurrent-simulation capacity of registered workers.", "gauge", uint64(snap.Fleet.Capacity)},
		{"ringsimd_fleet_pending", "Jobs waiting in the fleet pool for any worker.", "gauge", uint64(snap.Fleet.Pending)},
		{"ringsimd_fleet_leases_outstanding", "Jobs currently out under a remote lease.", "gauge", uint64(snap.Fleet.Leased)},
		{"ringsimd_fleet_requeues_total", "Leases that expired or died with their worker and were requeued.", "counter", snap.Fleet.Requeues},
		{"ringsimd_fleet_remote_runs_total", "Run records accepted from remote workers.", "counter", snap.Fleet.RemoteCompleted},
		{"ringsimd_fleet_poisoned_total", "Jobs parked in the poisoned lot after burning their attempt cap.", "counter", snap.Fleet.PoisonedTotal},
		{"ringsimd_fleet_poisoned_parked", "Jobs currently parked in the poisoned lot.", "gauge", uint64(snap.Fleet.PoisonedParked)},
		{"ringsimd_journal_entries_total", "Control-plane journal records appended.", "counter", snap.Journal.Entries},
		{"ringsimd_journal_checkpoints_total", "Journal checkpoint compactions written.", "counter", snap.Journal.Checkpoints},
		{"ringsimd_journal_replayed_total", "Journal records replayed during startup recovery.", "counter", snap.Journal.Replayed},
		{"ringsimd_journal_torn_total", "Truncated trailing journal records discarded at recovery.", "counter", snap.Journal.Torn},
	}
	// Twin profile cache: the analytical gate's trace summaries, cached
	// on disk next to the result store so warm explorations skip the
	// profiling pass too.
	pc := harness.DefaultProfileCache.Stats()
	rows = append(rows,
		[]metricRow{
			{"ringsimd_profile_cache_entries", "Trace summary profiles resident in memory.", "gauge", uint64(pc.Entries)},
			{"ringsimd_profile_cache_hits_total", "Profile requests served from memory.", "counter", pc.Hits},
			{"ringsimd_profile_cache_disk_hits_total", "Profile requests served from the disk layer.", "counter", pc.DiskHits},
			{"ringsimd_profile_cache_misses_total", "Profile requests that ran the summarizer.", "counter", pc.Misses},
		}...)
	// Trace-cache occupancy and service counters. Traces live only while
	// queued or running work holds them, so entries and bytes follow the
	// load and return to zero when the daemon is idle; with synthetic
	// specs the workload space is unbounded, so generation (misses) is a
	// first-class cost worth watching.
	tc := harness.DefaultTraceCache.Stats()
	rows = append(rows,
		[]metricRow{
			{"ringsimd_trace_cache_entries", "Materialized workload streams resident in the trace cache.", "gauge", uint64(tc.Entries)},
			{"ringsimd_trace_cache_held", "Workload streams some queued or running work holds, materialized or not.", "gauge", uint64(tc.Held)},
			{"ringsimd_trace_cache_bytes", "Memory allocated for materialized traces: the packed stores' segments of encoded records, about 6 bytes an instruction.", "gauge", tc.Bytes},
			{"ringsimd_trace_cache_peak_bytes", "High-water mark of ringsimd_trace_cache_bytes since the process started.", "gauge", tc.PeakBytes},
			{"ringsimd_trace_cache_hits_total", "Stream requests served from an existing trace-cache entry.", "counter", tc.Hits},
			{"ringsimd_trace_cache_misses_total", "Stream requests that materialized a new entry or fell back to a private generator.", "counter", tc.Misses},
			{"ringsimd_trace_cache_fallbacks_total", "Stream requests the instruction budget turned away to a private generator.", "counter", tc.Fallbacks},
			{"ringsimd_trace_cache_dropped_total", "Trace-cache entries freed when their last holder released them.", "counter", tc.Dropped},
		}...)
	// Shared workloads: how many runs of a grid call were fed to the
	// workers next to another run replaying the same trace (remote fleet
	// workers and the CLI grid; the daemon's own workers lease one run at
	// a time, which groups nothing).
	bs := harness.BatchStatsSnapshot()
	rows = append(rows,
		[]metricRow{
			{"ringsimd_batch_groups_total", "Workloads named by 2+ runs of one grid call, fed to its workers back to back.", "counter", bs.Groups},
			{"ringsimd_batch_runs_total", "Runs of such shared workloads.", "counter", bs.GroupedRuns},
			{"ringsimd_batch_amortized_decodes_total", "Stream reads a shared workload's materialization can serve to its other runs.", "counter", bs.AmortizedDecodes},
		}...)
	// Sampled simulation: how much of the instruction volume ran as cheap
	// functional fast-forward instead of detailed timing.
	ss := harness.SampledStatsSnapshot()
	rows = append(rows,
		[]metricRow{
			{"ringsimd_sampled_runs_total", "Simulations executed at sampled fidelity.", "counter", ss.Runs},
			{"ringsimd_sampled_ff_insts_total", "Instructions retired by functional fast-forward in sampled runs.", "counter", ss.FFInsts},
			{"ringsimd_sampled_detailed_insts_total", "Instructions retired by detailed windows in sampled runs.", "counter", ss.DetailedInsts},
		}...)
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", r.name, r.help, r.name, r.kind, r.name, r.val)
	}
	ratios := []struct {
		name, help string
		val        float64
	}{
		{"ringsimd_cache_hit_ratio", "Fraction of answered run submissions served from the result store.", snap.CacheHitRatio()},
		{"ringsimd_explore_cache_hit_ratio", "Fraction of exploration program runs that cost no new simulation.", snap.ExploreCacheHitRatio()},
		{"ringsimd_twin_mape", "Mean predicted-vs-simulated IPC error (percent) across twin-gated explorations.", snap.TwinMAPE},
	}
	for _, r := range ratios {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", r.name, r.help, r.name, r.name, r.val)
	}

	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
		"ringsimd_queue_age_seconds", "Time jobs spent queued before a worker began them.", "ringsimd_queue_age_seconds")
	s.histQueueAge.write(w, "ringsimd_queue_age_seconds", "")
	labels, hists := s.workerLatency.snapshot()
	if len(labels) > 0 {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
			"ringsimd_worker_complete_seconds", "Per-worker simulation completion latency (lease grant to completion).", "ringsimd_worker_complete_seconds")
		for _, label := range labels {
			hists[label].write(w, "ringsimd_worker_complete_seconds", fmt.Sprintf("worker=%q", label))
		}
	}
}
