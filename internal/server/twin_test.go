package server

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/results"
)

// twinExploreBody is a 2-axis space (arch × clusters, 4 points in two
// equal-area pairs) the calibrated twin separates decisively; insts is
// raised above the e2e default so measured and predicted rankings agree
// the way they do at calibration scale.
func twinExploreBody(twin string) map[string]any {
	return map[string]any{
		"base": map[string]any{
			"paper": map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
		},
		"axes": []map[string]any{
			{"name": "arch", "values": []int{0, 1}},
			{"name": "clusters", "values": []int{4, 8}},
		},
		"strategy": "grid",
		"programs": []string{"gcc", "swim"},
		"insts":    20_000,
		"warmup":   4_000,
		"twin":     twin,
	}
}

// TestExploreTwinE2E is the two-tier acceptance scenario over HTTP: a
// twin-gated exploration must reproduce the exhaustive Pareto frontier
// while running strictly fewer simulations, and the savings must land in
// the exploration JSON and the ringsimd_twin_* metrics family.
func TestExploreTwinE2E(t *testing.T) {
	srv, hs := newTestServer(t, results.NewMemoryLRU(256))

	var exact exploreView
	postJSON(t, hs.URL+"/v1/explore", twinExploreBody("off"), http.StatusAccepted, &exact)
	exact = pollExplore(t, hs.URL, exact.ID)
	if exact.Status != statusDone || exact.TwinMode != "" {
		t.Fatalf("exhaustive pass: %+v", exact)
	}
	if p, a := srv.metrics.TwinPredictions.Load(), srv.metrics.TwinSimsAvoided.Load(); p != 0 || a != 0 {
		t.Fatalf("twin counters moved on a twin=off exploration: %d predictions, %d sims avoided", p, a)
	}

	var tv exploreView
	postJSON(t, hs.URL+"/v1/explore", twinExploreBody("on"), http.StatusAccepted, &tv)
	tv = pollExplore(t, hs.URL, tv.ID)
	if tv.Status != statusDone {
		t.Fatalf("twin pass: %+v", tv)
	}
	if tv.TwinMode != "on" || tv.TwinPredictions == 0 || tv.SimsAvoided == 0 {
		t.Fatalf("twin accounting missing: %+v", tv)
	}
	if tv.TwinMAPE <= 0 || tv.TwinMAPE > 30 {
		t.Errorf("twin MAPE %v%% outside (0, 30]", tv.TwinMAPE)
	}
	if len(tv.Frontier) != len(exact.Frontier) {
		t.Fatalf("twin frontier has %d points, exhaustive %d", len(tv.Frontier), len(exact.Frontier))
	}
	byName := map[string]float64{}
	for _, p := range exact.Frontier {
		byName[p.Config] = p.Objectives.IPC
	}
	for _, p := range tv.Frontier {
		ipc, ok := byName[p.Config]
		if !ok {
			t.Fatalf("twin frontier point %s not on exhaustive frontier", p.Config)
		}
		if ipc != p.Objectives.IPC {
			t.Errorf("%s: twin IPC %v, exhaustive %v (same store, must be identical)", p.Config, p.Objectives.IPC, ipc)
		}
	}
	// The gate's whole point: verified sims all hit the exhaustive pass's
	// cache, and the avoided candidates never reached the queue.
	if tv.SimsRun != 0 {
		t.Errorf("twin verification ran %d fresh sims over a warm store, want 0", tv.SimsRun)
	}
	m := scrape(t, hs.URL)
	if want := strconv.Itoa(tv.TwinPredictions); m["ringsimd_twin_predictions_total"] != want {
		t.Errorf("ringsimd_twin_predictions_total = %s, want the exploration's %s", m["ringsimd_twin_predictions_total"], want)
	}
	if want := strconv.Itoa(tv.SimsAvoided); m["ringsimd_twin_sims_avoided_total"] != want {
		t.Errorf("ringsimd_twin_sims_avoided_total = %s, want the exploration's %s", m["ringsimd_twin_sims_avoided_total"], want)
	}
	// The metrics accumulator keeps milli-percent resolution.
	mape, err := strconv.ParseFloat(m["ringsimd_twin_mape"], 64)
	if diff := mape - tv.TwinMAPE; err != nil || diff > 0.001 || diff < -0.001 {
		t.Errorf("metrics mean MAPE %q, exploration MAPE %v", m["ringsimd_twin_mape"], tv.TwinMAPE)
	}
}

// TestExploreTwinValidation: a bad twin value and an impossible
// mode/strategy pair are refused synchronously with actionable errors.
func TestExploreTwinValidation(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(8))

	body := twinExploreBody("fast")
	var er struct {
		Error string `json:"error"`
	}
	postJSON(t, hs.URL+"/v1/explore", body, http.StatusBadRequest, &er)
	for _, frag := range []string{"-twin", "fast", "on, off, auto"} {
		if !strings.Contains(er.Error, frag) {
			t.Errorf("bad twin value error %q does not name %q", er.Error, frag)
		}
	}

	body = twinExploreBody("on")
	body["strategy"] = "random"
	body["samples"] = 2
	postJSON(t, hs.URL+"/v1/explore", body, http.StatusBadRequest, &er)
	for _, frag := range []string{"-twin=on", "-strategy=grid"} {
		if !strings.Contains(er.Error, frag) {
			t.Errorf("twin/strategy clash error %q does not name %q", er.Error, frag)
		}
	}
}
