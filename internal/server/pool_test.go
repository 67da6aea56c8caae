package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scrape reads /metrics into series name (labels included) → value text.
func scrape(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			out[name] = value
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// wantSeries checks the values of the named series on /metrics.
func wantSeries(t *testing.T, base string, want map[string]string) {
	t.Helper()
	got := scrape(t, base)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %q, want %s", name, got[name], v)
		}
	}
}

// gridBody names a config-major grid — harness.Expand's order, every
// program once per configuration — of the first nConfigs paper
// configurations over the first nPrograms programs.
func gridBody(nConfigs, nPrograms int) map[string]any {
	configs := make([]map[string]any, 0, nConfigs)
	for _, c := range harness.PaperConfigs()[:nConfigs] {
		configs = append(configs, map[string]any{"config": c})
	}
	return map[string]any{
		"configs":  configs,
		"programs": workload.Names()[:nPrograms],
		"insts":    testInsts,
		"warmup":   testWarmup,
	}
}

// TestDaemonTraceMemoryFollowsWorkers: a config-major sweep of P programs
// × C configurations on W local workers keeps at most W+1 streams
// resident, builds each stream once, and leaves nothing behind — the runs
// of one trace reach the workers back to back whatever order they were
// named in. A FIFO queue cycles through all P programs per configuration
// and keeps all P streams resident until the last one.
func TestDaemonTraceMemoryFollowsWorkers(t *testing.T) {
	useFreshTraceCache(t)
	const workers, programs, configs = 2, 8, 4
	srv, err := New(Options{Workers: workers, QueueDepth: 256, Store: results.NewMemoryLRU(256)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", gridBody(configs, programs), http.StatusAccepted, &sv)
	if sv = pollSweep(t, hs.URL, sv.ID); sv.Status != statusDone || sv.Done != programs*configs {
		t.Fatalf("sweep: status=%s done=%d", sv.Status, sv.Done)
	}
	st := expectNoTraces(t, "after the sweep")
	if st.Misses != programs {
		t.Errorf("streams were built %d times, want once per program (%d)", st.Misses, programs)
	}
	// Every stream of this grid is one program at the same budget; the
	// bound is the largest of them as a store holds it.
	var stream uint64
	for _, prog := range workload.Names()[:programs] {
		gen, err := workload.NewStream(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		var p trace.Packed
		p.Reserve(testInsts + testWarmup)
		if err := p.Extend(gen, testInsts+testWarmup); err != nil {
			t.Fatal(err)
		}
		stream = max(stream, p.Bytes())
	}
	if bound := (workers + 1) * stream; st.PeakBytes == 0 || st.PeakBytes > bound {
		t.Errorf("peak trace bytes %d, want within (workers+1) × one stream = %d (all %d programs resident = %d)",
			st.PeakBytes, bound, programs, programs*stream)
	}
}

// TestPlainDaemonIsAFleetOfZero: a plain daemon and a -fleet daemon nobody
// registered with are one code path — the same sweep yields byte-identical
// result tables and the same run counters on /metrics.
func TestPlainDaemonIsAFleetOfZero(t *testing.T) {
	sweep := func(fo *fleet.CoordinatorOptions) ([]byte, map[string]string) {
		srv, err := New(Options{Workers: 2, QueueDepth: 8, Store: results.NewMemoryLRU(64), Fleet: fo})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		defer func() { hs.Close(); srv.Close() }()
		var sv sweepView
		postJSON(t, hs.URL+"/v1/sweeps", gridBody(3, 4), http.StatusAccepted, &sv)
		if sv = pollSweep(t, hs.URL, sv.ID); sv.Status != statusDone {
			t.Fatalf("sweep: %+v", sv)
		}
		table, err := json.Marshal(sv.Results)
		if err != nil {
			t.Fatal(err)
		}
		return table, scrape(t, hs.URL)
	}
	plainTable, plain := sweep(nil)
	fleetTable, zero := sweep(&fleet.CoordinatorOptions{})
	if string(plainTable) != string(fleetTable) {
		t.Errorf("result tables differ:\nplain %s\nfleet %s", plainTable, fleetTable)
	}
	for _, series := range []string{
		"ringsimd_runs_submitted_total", "ringsimd_runs_started_total", "ringsimd_runs_completed_total",
		"ringsimd_runs_failed_total", "ringsimd_cache_hits_total", "ringsimd_deduped_total",
		"ringsimd_queue_rejected_total", "ringsimd_queue_len", "ringsimd_fleet_pending",
		"ringsimd_fleet_remote_runs_total",
	} {
		if plain[series] == "" || plain[series] != zero[series] {
			t.Errorf("%s: plain %q, fleet of zero %q", series, plain[series], zero[series])
		}
	}
	if plain["ringsimd_runs_started_total"] != "12" {
		t.Errorf("runs started = %s, want 12", plain["ringsimd_runs_started_total"])
	}
}

// TestQueueGaugeCountsThePool: ringsimd_queue_len and /healthz queue_len
// report the runs waiting in the pool, in fleet mode too — where the gauge
// used to read a channel the dispatchers had already drained. A
// dispatch-only coordinator nobody leases from holds a whole sweep
// pending; one worker later the gauge is back to zero.
func TestQueueGaugeCountsThePool(t *testing.T) {
	_, hs := newFleetServer(t, results.NewMemoryLRU(64), fleet.CoordinatorOptions{})
	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)

	gauges := func() (metric string, healthz float64) {
		var hz map[string]any
		getJSON(t, hs.URL+"/healthz", &hz)
		healthz, _ = hz["queue_len"].(float64)
		return scrape(t, hs.URL)["ringsimd_queue_len"], healthz
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		metric, healthz := gauges()
		if metric == "4" && healthz == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("4 runs wait for a worker, ringsimd_queue_len = %s and /healthz queue_len = %v", metric, healthz)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pending := scrape(t, hs.URL)["ringsimd_fleet_pending"]; pending != "4" {
		t.Errorf("ringsimd_fleet_pending = %s, want 4", pending)
	}

	startWorker(t, hs.URL, "drain", nil)
	if sv = pollSweep(t, hs.URL, sv.ID); sv.Status != statusDone {
		t.Fatalf("sweep: %+v", sv)
	}
	if metric, healthz := gauges(); metric != "0" || healthz != 0 {
		t.Errorf("after the sweep: ringsimd_queue_len = %s, /healthz queue_len = %v, want 0", metric, healthz)
	}
}

// TestFleetQueueFullDuringSweep: -queue bounds the pool of a -fleet
// coordinator too. While a sweep larger than the bound keeps the pool full
// a direct submission is refused with 503 (before the one pool, fleet mode
// drained its queue into an unbounded pool and accepted it); once workers
// make room the same submission is taken.
func TestFleetQueueFullDuringSweep(t *testing.T) {
	fo := fleet.CoordinatorOptions{}
	srv, err := New(Options{Workers: -1, QueueDepth: 2, Store: results.NewMemoryLRU(64), Fleet: &fo})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv) // 4 runs into a pool of 2
	deadline := time.Now().Add(10 * time.Second)
	for srv.fleet.Stats().Pending < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the feeder never filled the pool: queue_len = %d", srv.fleet.Stats().Pending)
		}
		time.Sleep(time.Millisecond)
	}
	direct := map[string]any{
		"paper":   map[string]any{"arch": "ring", "clusters": 8, "iw": 2, "buses": 1},
		"program": "mcf", "insts": testInsts, "warmup": testWarmup,
	}
	postJSON(t, hs.URL+"/v1/runs", direct, http.StatusServiceUnavailable, nil)
	if got := srv.metrics.QueueRejected.Load(); got != 1 {
		t.Errorf("queue_rejected = %d, want 1", got)
	}

	startWorker(t, hs.URL, "drain", nil)
	if sv = pollSweep(t, hs.URL, sv.ID); sv.Status != statusDone {
		t.Fatalf("sweep: %+v", sv)
	}
	var rv runView
	postJSON(t, hs.URL+"/v1/runs", direct, http.StatusAccepted, &rv)
	if rv = pollRun(t, hs.URL, rv.ID); rv.Status != statusDone {
		t.Fatalf("direct run after the sweep: %+v", rv)
	}
}
