package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/results"
)

// exploreBody is the acceptance search: a 3-axis space (arch × issue
// width × buses, 8 points) over the 4-cluster base, scored on two
// programs.
func exploreBody() map[string]any {
	return map[string]any{
		"base": map[string]any{
			"paper": map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
		},
		"axes": []map[string]any{
			{"name": "arch", "values": []int{0, 1}},
			{"name": "iw", "values": []int{1, 2}},
			{"name": "buses", "values": []int{1, 2}},
		},
		"strategy": "grid",
		"programs": []string{"gcc", "swim"},
		"insts":    testInsts,
		"warmup":   testWarmup,
	}
}

// pollExplore polls until the exploration leaves the running state.
func pollExplore(t *testing.T, base, id string) exploreView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var ev exploreView
		getJSON(t, base+"/v1/explore/"+id, &ev)
		if ev.Status != statusRunning {
			return ev
		}
		if time.Now().After(deadline) {
			t.Fatalf("exploration %s did not finish: %+v", id, ev)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestExploreE2E is the acceptance scenario: POST /v1/explore finds a
// non-empty Pareto frontier over (IPC, area) for a 3-axis space, and an
// identical resubmission is answered entirely from the result cache —
// zero new simulations, verified against the runs-started and
// explore-cache-hit counters.
func TestExploreE2E(t *testing.T) {
	srv, hs := newTestServer(t, results.NewMemoryLRU(256))

	var ev exploreView
	postJSON(t, hs.URL+"/v1/explore", exploreBody(), http.StatusAccepted, &ev)
	if ev.ID == "" || ev.Status != statusRunning || ev.SpaceSize != 8 {
		t.Fatalf("submit: %+v", ev)
	}
	ev = pollExplore(t, hs.URL, ev.ID)
	if ev.Status != statusDone {
		t.Fatalf("exploration failed: %+v", ev)
	}
	if ev.Evaluated != 8 || ev.Failed != 0 || ev.Skipped != 0 {
		t.Fatalf("evaluated=%d failed=%d skipped=%d, want 8/0/0", ev.Evaluated, ev.Failed, ev.Skipped)
	}
	if len(ev.Frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for _, p := range ev.Frontier {
		if p.Objectives.IPC <= 0 || p.Objectives.Area <= 0 {
			t.Fatalf("degenerate frontier point: %+v", p)
		}
	}
	if len(ev.Points) != 8 {
		t.Fatalf("final view carries %d points, want 8", len(ev.Points))
	}
	wantSeries(t, hs.URL, map[string]string{
		"ringsimd_explores_submitted_total": "1",
		"ringsimd_runs_started_total":       "16",
		"ringsimd_explore_points_total":     "8",
		"ringsimd_explore_sims_total":       "16",
		"ringsimd_explore_cache_hits_total": "0",
	})

	// Identical resubmission: the content-addressed registry/store answers
	// every point; nothing new simulates.
	var ev2 exploreView
	postJSON(t, hs.URL+"/v1/explore", exploreBody(), http.StatusAccepted, &ev2)
	if ev2.ID == ev.ID {
		t.Fatal("resubmission reused the exploration id")
	}
	ev2 = pollExplore(t, hs.URL, ev2.ID)
	if ev2.Status != statusDone {
		t.Fatalf("re-exploration failed: %+v", ev2)
	}
	if ev2.SimsRun != 0 || ev2.CacheHits != 16 {
		t.Errorf("re-exploration sims=%d cache_hits=%d, want 0/16", ev2.SimsRun, ev2.CacheHits)
	}
	wantSeries(t, hs.URL, map[string]string{
		"ringsimd_explores_submitted_total": "2",
		"ringsimd_runs_started_total":       "16",
		"ringsimd_explore_cache_hits_total": "16",
		"ringsimd_explore_cache_hit_ratio":  "0.5", // 16 sims + 16 hits lifetime
	})
	if len(ev2.Frontier) != len(ev.Frontier) {
		t.Errorf("cached exploration found %d frontier points, want %d", len(ev2.Frontier), len(ev.Frontier))
	}

	// A different strategy over the same space rides the same warm cache:
	// the climber's seeds and neighbors are all grid points the exhaustive
	// pass already simulated. (Content identity includes the config name,
	// so only dse-named candidates coalesce — a paper-named sweep of the
	// same machines is a distinct key space by design.)
	body := exploreBody()
	body["strategy"] = "climb"
	body["seed"] = 9
	var ev3 exploreView
	postJSON(t, hs.URL+"/v1/explore", body, http.StatusAccepted, &ev3)
	ev3 = pollExplore(t, hs.URL, ev3.ID)
	if ev3.Status != statusDone {
		t.Fatalf("climb over warm cache: %+v", ev3)
	}
	if n := srv.metrics.RunsStarted.Load(); n != 16 {
		t.Errorf("climb strategy re-simulated points the grid pass already covered: %d runs started, want 16", n)
	}
	wantSeries(t, hs.URL, map[string]string{"ringsimd_explores_submitted_total": "3"})
	if ev3.SimsRun != 0 {
		t.Errorf("climb over warm cache ran %d sims, want 0", ev3.SimsRun)
	}
}

// TestExploreRandomStrategy drives the stochastic path through HTTP with
// a pinned seed and budget.
func TestExploreRandomStrategy(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(256))
	body := exploreBody()
	body["strategy"] = "random"
	body["samples"] = 3
	body["seed"] = 42
	var ev exploreView
	postJSON(t, hs.URL+"/v1/explore", body, http.StatusAccepted, &ev)
	ev = pollExplore(t, hs.URL, ev.ID)
	if ev.Status != statusDone {
		t.Fatalf("random exploration: %+v", ev)
	}
	if ev.Evaluated == 0 || ev.Evaluated > 3 {
		t.Fatalf("random exploration evaluated %d points, want 1..3", ev.Evaluated)
	}
	if len(ev.Frontier) == 0 {
		t.Fatal("random exploration found no frontier")
	}
}

func TestExploreValidation(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(8))
	cases := []struct {
		name string
		mut  func(map[string]any)
	}{
		{"no axes", func(b map[string]any) { delete(b, "axes") }},
		{"unknown axis", func(b map[string]any) {
			b["axes"] = []map[string]any{{"name": "frequency", "values": []int{1}}}
		}},
		{"unknown strategy", func(b map[string]any) { b["strategy"] = "simulated-annealing" }},
		{"unknown program", func(b map[string]any) { b["programs"] = []string{"doom"} }},
		{"zero insts", func(b map[string]any) { b["insts"] = 0 }},
		{"bad base", func(b map[string]any) {
			b["base"] = map[string]any{"paper": map[string]any{"arch": "torus", "clusters": 4, "iw": 2, "buses": 1}}
		}},
		{"oversized space", func(b map[string]any) {
			hops := make([]int, 100)
			iqs := make([]int, 100)
			for i := range hops {
				hops[i], iqs[i] = i+1, i+1
			}
			b["axes"] = []map[string]any{
				{"name": "hop", "values": hops},
				{"name": "iq", "values": iqs},
			}
		}},
	}
	for _, c := range cases {
		body := exploreBody()
		c.mut(body)
		t.Run(c.name, func(t *testing.T) {
			postJSON(t, hs.URL+"/v1/explore", body, http.StatusBadRequest, nil)
		})
	}
	resp, err := http.Get(hs.URL + "/v1/explore/explore-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown exploration GET = %d, want 404", resp.StatusCode)
	}
}

// TestCacheHitRatioDenominator pins the gauge semantics: the ratio is
// over answered submissions (hits + finished simulations), so rejected
// or in-flight submissions cannot depress it.
func TestCacheHitRatioDenominator(t *testing.T) {
	var row series
	for _, r := range seriesTable {
		if r.name == "ringsimd_cache_hit_ratio" {
			row = r
		}
	}
	hitRatio := func(submitted, rejected, hits, completed, failed uint64) float64 {
		var m Metrics
		m.RunsSubmitted.Store(submitted)
		m.QueueRejected.Store(rejected)
		m.CacheHits.Store(hits)
		m.RunsCompleted.Store(completed)
		m.RunsFailed.Store(failed)
		return row.value(&scrapeState{m: &m})
	}
	if got := hitRatio(0, 0, 0, 0, 0); got != 0 {
		t.Errorf("ratio before anything was answered = %v, want 0", got)
	}
	if got := hitRatio(200, 100, 100, 0, 0); got != 1.0 {
		t.Errorf("all answered-from-cache ratio = %v, want 1.0 (rejections must not dilute)", got)
	}
	if got := hitRatio(4, 0, 1, 2, 1); got != 0.25 {
		t.Errorf("ratio = %v, want 0.25", got)
	}
}

// TestExploreRegistryEviction bounds the exploration registry.
func TestExploreRegistryEviction(t *testing.T) {
	srv, err := New(Options{
		Workers: 2, QueueDepth: 64,
		Store:          results.NewMemoryLRU(64),
		maxSubmissions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, srv)

	body := exploreBody()
	body["strategy"] = "random"
	body["samples"] = 1
	body["seed"] = 1
	var e1, e2 exploreView
	postJSON(t, hs+"/v1/explore", body, http.StatusAccepted, &e1)
	pollExplore(t, hs, e1.ID)
	body["seed"] = 2
	postJSON(t, hs+"/v1/explore", body, http.StatusAccepted, &e2)
	resp, err := http.Get(hs + "/v1/explore/" + e1.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted exploration GET = %d, want 404", resp.StatusCode)
	}
	if ev := pollExplore(t, hs, e2.ID); ev.Status != statusDone {
		t.Errorf("surviving exploration: %+v", ev)
	}
}

// TestExploreCloseMidFlight closes the server while an exploration is in
// flight and expects a clean shutdown (no hang, no panic) with the
// exploration marked failed or done.
func TestExploreCloseMidFlight(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueDepth: 2, Store: results.NewMemoryLRU(64)})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, srv)
	body := exploreBody()
	body["insts"] = 60_000 // slow enough to still be running at Close
	var ev exploreView
	postJSON(t, hs+"/v1/explore", body, http.StatusAccepted, &ev)
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("Close hung with an exploration in flight")
	}
	srv.mu.Lock()
	st := srv.subs[ev.ID]
	status := st.view.Status
	srv.mu.Unlock()
	if status == statusRunning {
		t.Errorf("exploration still running after Close")
	}
}

// TestDaemonExploreMatchesInProcess: the daemon's exploration, whose
// batches settle through the run registry and the pending pool, reports
// exactly what dse.Explore reports over a SimEvaluator on the same space,
// programs and budgets — the same frontier, the same points in the same
// order, the same counts — for a sampled grid (search tier, then exact
// confirmation of its frontier) and for a random search over several
// rounds whose suite names one program twice.
func TestDaemonExploreMatchesInProcess(t *testing.T) {
	sampled := exploreBody()
	sampled["insts"], sampled["warmup"] = 12_000, 2_000 // room for the sampled windows
	sampled["fidelity"] = "sampled(3000,500,200)"
	random := exploreBody()
	random["axes"] = []map[string]any{ // 32 points: three rounds of 8, 8 and 4
		{"name": "arch", "values": []int{0, 1}},
		{"name": "clusters", "values": []int{2, 4}},
		{"name": "iw", "values": []int{1, 2}},
		{"name": "buses", "values": []int{1, 2}},
		{"name": "hop", "values": []int{1, 2}},
	}
	random["strategy"], random["samples"], random["seed"] = "random", 20, 42
	random["programs"] = []string{"gcc", "swim", "gcc"} // a key repeated within each batch

	for _, tc := range []struct {
		name string
		body map[string]any
	}{{"sampled grid", sampled}, {"random", random}} {
		t.Run(tc.name, func(t *testing.T) {
			_, hs := newTestServer(t, results.NewMemoryLRU(256))
			var got exploreView
			postJSON(t, hs.URL+"/v1/explore", tc.body, http.StatusAccepted, &got)
			if got = pollExplore(t, hs.URL, got.ID); got.Status != statusDone {
				t.Fatalf("daemon exploration: %+v", got)
			}

			raw, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			var er dse.Request
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatal(err)
			}
			opts, err := er.Options()
			if err != nil {
				t.Fatal(err)
			}
			opts.Evaluator = &dse.SimEvaluator{Programs: opts.Twin.Programs, Insts: er.Insts, Warmup: er.Warmup, Store: results.NewMemoryLRU(256)}
			rep, err := dse.Explore(opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "random" && rep.Rounds < 3 {
				t.Fatalf("the random search ran %d round(s), want 3", rep.Rounds)
			}
			if opts.Sampling.Enabled() && (rep.SampledSims == 0 || rep.ExactConfirms == 0) {
				t.Fatalf("a tier did not run: %+v", rep)
			}
			want := exploreView{ID: got.ID, Status: statusDone}
			snapshotReport(&want, rep, true)
			a, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("daemon and in-process explorations differ:\ndaemon     %s\nin-process %s", a, b)
			}
		})
	}
}

// newHTTPServer is newTestServer for a caller-built Server.
func newHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return hs.URL
}
