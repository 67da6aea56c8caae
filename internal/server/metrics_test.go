package server

import (
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/results"
)

// metricsText fetches the /metrics exposition.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// exportedSeries pins the families /metrics exports, in rendering order.
var exportedSeries = []string{
	"ringsimd_runs_submitted_total",
	"ringsimd_runs_started_total",
	"ringsimd_runs_completed_total",
	"ringsimd_runs_failed_total",
	"ringsimd_cache_hits_total",
	"ringsimd_deduped_total",
	"ringsimd_sweeps_submitted_total",
	"ringsimd_queue_rejected_total",
	"ringsimd_store_put_errors_total",
	"ringsimd_explores_submitted_total",
	"ringsimd_explore_points_total",
	"ringsimd_explore_sims_total",
	"ringsimd_explore_cache_hits_total",
	"ringsimd_twin_predictions_total",
	"ringsimd_twin_sims_avoided_total",
	"ringsimd_queue_len",
	"ringsimd_workers",
	"ringsimd_fleet_workers",
	"ringsimd_fleet_capacity",
	"ringsimd_fleet_pending",
	"ringsimd_fleet_leases_outstanding",
	"ringsimd_fleet_requeues_total",
	"ringsimd_fleet_remote_runs_total",
	"ringsimd_fleet_poisoned_total",
	"ringsimd_fleet_poisoned_parked",
	"ringsimd_journal_entries_total",
	"ringsimd_journal_checkpoints_total",
	"ringsimd_journal_replayed_total",
	"ringsimd_journal_torn_total",
	"ringsimd_profile_cache_entries",
	"ringsimd_profile_cache_hits_total",
	"ringsimd_profile_cache_disk_hits_total",
	"ringsimd_profile_cache_misses_total",
	"ringsimd_trace_cache_entries",
	"ringsimd_trace_cache_held",
	"ringsimd_trace_cache_bytes",
	"ringsimd_trace_cache_peak_bytes",
	"ringsimd_trace_cache_hits_total",
	"ringsimd_trace_cache_misses_total",
	"ringsimd_trace_cache_fallbacks_total",
	"ringsimd_trace_cache_dropped_total",
	"ringsimd_sampled_runs_total",
	"ringsimd_sampled_ff_insts_total",
	"ringsimd_sampled_detailed_insts_total",
	"ringsimd_cache_hit_ratio",
	"ringsimd_explore_cache_hit_ratio",
	"ringsimd_twin_mape",
	"ringsimd_queue_age_seconds",
	"ringsimd_worker_complete_seconds",
}

// TestSeriesTable: a fresh server renders every row of seriesTable once —
// one HELP line, one TYPE line of the row's kind and its samples (one for
// a counter or gauge; buckets, sum and count for a histogram) — and
// nothing else. The table's names are the pinned list.
func TestSeriesTable(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(8))
	text := metricsText(t, hs.URL)

	var names []string
	for _, r := range seriesTable {
		names = append(names, r.name)
		if (r.kind == "histogram") != (r.hist != nil) || (r.hist == nil) == (r.value == nil) {
			t.Errorf("%s: a %s row must set exactly the reader its kind renders", r.name, r.kind)
		}
	}
	if !slices.Equal(names, exportedSeries) {
		t.Errorf("series table names\n%v\nwant\n%v", names, exportedSeries)
	}

	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	count := func(pred func(string) bool) int {
		n := 0
		for _, l := range lines {
			if pred(l) {
				n++
			}
		}
		return n
	}
	rendered := 0
	for _, r := range seriesTable {
		if n := count(func(l string) bool { return strings.HasPrefix(l, "# HELP "+r.name+" ") }); n != 1 {
			t.Errorf("%s: %d HELP lines, want 1", r.name, n)
		}
		if n := count(func(l string) bool { return l == "# TYPE "+r.name+" "+r.kind }); n != 1 {
			t.Errorf("%s: %d TYPE lines of kind %s, want 1", r.name, n, r.kind)
		}
		samples, want := 0, 1
		if r.kind == "histogram" {
			want = len(latencyBuckets) + 3 // finite buckets, +Inf, sum, count
			for _, suffix := range []string{"_bucket{", "_sum ", "_count "} {
				samples += count(func(l string) bool { return strings.HasPrefix(l, r.name+suffix) })
			}
		} else {
			samples = count(func(l string) bool { return strings.HasPrefix(l, r.name+" ") })
		}
		if samples != want {
			t.Errorf("%s: %d samples, want %d", r.name, samples, want)
		}
		rendered += 2 + samples
	}
	if rendered != len(lines) {
		t.Errorf("/metrics has %d lines, the table accounts for %d:\n%s", len(lines), rendered, text)
	}

	wantSeries(t, hs.URL, map[string]string{
		"ringsimd_workers":                 "2",
		"ringsimd_cache_hit_ratio":         "0",
		"ringsimd_explore_cache_hit_ratio": "0",
		"ringsimd_twin_mape":               "0",
	})
}

// TestWorkerChurnKeepsMetricsBounded: remote workers come and go — each
// registration gets a fresh id — without growing /metrics. Twenty
// workers each register, lease one run and complete it; the exposition
// has as many lines afterwards as on the fresh server, and the
// completion histogram counts all twenty.
func TestWorkerChurnKeepsMetricsBounded(t *testing.T) {
	_, hs := newFleetServer(t, results.NewMemoryLRU(64), fleet.CoordinatorOptions{})
	fresh := strings.Count(metricsText(t, hs.URL), "\n")

	const workers = 20
	for i := range workers {
		_, stop := startWorker(t, hs.URL, "churn", nil)
		var rv runView
		postJSON(t, hs.URL+"/v1/runs", map[string]any{
			"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
			"program": "gcc", "insts": testInsts + i, "warmup": testWarmup,
		}, http.StatusAccepted, &rv)
		if rv = pollRun(t, hs.URL, rv.ID); rv.Status != statusDone {
			t.Fatalf("run %d: %+v", i, rv)
		}
		stop()
	}
	if got := strings.Count(metricsText(t, hs.URL), "\n"); got != fresh {
		t.Errorf("/metrics grew from %d to %d lines over %d worker registrations", fresh, got, workers)
	}
	wantSeries(t, hs.URL, map[string]string{
		"ringsimd_fleet_remote_runs_total":       "20",
		"ringsimd_worker_complete_seconds_count": "20",
	})
}
