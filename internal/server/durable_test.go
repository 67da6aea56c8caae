package server

import (
	"bytes"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/results"
)

// newDurableServer wires a server onto a shared disk store + journal
// directory pair, standing in for one ringsimd process generation.
func newDurableServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server, *journal.Journal) {
	t.Helper()
	store, err := results.NewDisk(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	// NoSync keeps the test fast; crash-window semantics are covered by
	// the journal's own unit tests.
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: workers, QueueDepth: 64, Store: store, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv.Handler()), j
}

// TestCrashRecoverySweepE2E is the acceptance scenario for the durable
// control plane: kill the coordinator mid-sweep (Terminate, the
// in-process `kill -9`), restart over the same journal + store,
// re-attach by the durable sweep id, and require (1) the sweep finishes,
// (2) content keys and results are bit-identical to direct execution,
// and (3) members completed before the crash are settled from the store
// without re-simulating.
func TestCrashRecoverySweepE2E(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1, _ := newDurableServer(t, dir, 1)

	// Heavier members than the usual e2e grid so the kill lands with
	// work genuinely outstanding on the single worker.
	body := sweepBody()
	body["insts"] = 40 * testInsts

	var sv sweepView
	postJSON(t, hs1.URL+"/v1/sweeps", body, http.StatusAccepted, &sv)
	if sv.ID == "" || !strings.HasPrefix(sv.ID, "sweep-") || sv.Total != 4 {
		t.Fatalf("submit: %+v", sv)
	}
	id := sv.ID

	// Let some (ideally not all) members finish, then crash.
	deadline := time.Now().Add(2 * time.Minute)
	for sv.Done == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no member finished before deadline: %+v", sv)
		}
		time.Sleep(2 * time.Millisecond)
		getJSON(t, hs1.URL+"/v1/sweeps/"+id, &sv)
	}
	srv1.Terminate()
	hs1.Close()

	// What the dead process had durably finished (done ⇒ stored).
	srv1.mu.Lock()
	completedBefore := 0
	var memberReqs []harness.Request
	for _, key := range srv1.subs[id].keys {
		st := srv1.runs[key]
		memberReqs = append(memberReqs, st.req)
		if st.status == statusDone {
			completedBefore++
		}
	}
	srv1.mu.Unlock()
	if completedBefore == 0 {
		t.Fatal("crash happened before any completion; test setup broken")
	}

	// Process generation 2: recovery replays the journal, then the
	// client re-attaches with the same durable id.
	srv2, hs2, j2 := newDurableServer(t, dir, 2)
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	if j2.Stats().Replayed == 0 {
		t.Error("second process replayed nothing")
	}
	if rec := j2.ReplayState(); len(rec.Jobs) == 0 && len(rec.OpenManifests) == 0 {
		t.Errorf("recovery reconstructed nothing: %+v", rec)
	}

	final := pollSweep(t, hs2.URL, id)
	if final.Status != statusDone || final.Done != 4 || len(final.Results) != 4 {
		t.Fatalf("re-attached sweep: %+v", final)
	}

	// Bit-identical identity and stats versus direct execution.
	for i, req := range memberReqs {
		want, err := results.FromRun(req, harness.Execute(req))
		if err != nil {
			t.Fatal(err)
		}
		got := final.Results[i]
		if got.Key != want.Key {
			t.Errorf("member %d key %s, want %s", i, got.Key, want.Key)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("member %d stats diverged after recovery", i)
		}
	}

	// Zero re-simulation of completed jobs: the new process simulated
	// only what the crash left unfinished and settled the rest from the
	// store.
	if n, want := srv2.metrics.RunsStarted.Load(), uint64(4-completedBefore); n != want {
		t.Errorf("RunsStarted = %d, want %d (completed-before-crash must not re-simulate)", n, want)
	}
	if n := srv2.metrics.CacheHits.Load(); n < uint64(completedBefore) {
		t.Errorf("CacheHits = %d, want >= %d", n, completedBefore)
	}
	if got := scrape(t, hs2.URL)["ringsimd_journal_replayed_total"]; got == "0" || got == "" {
		t.Errorf("journal replay counter not surfaced in metrics: %q", got)
	}
}

// TestCrashRecoveryExplore kills the coordinator during a design-space
// exploration and expects the restarted process to re-drive it to
// completion under the original durable id (already-evaluated points
// settle from the store).
func TestCrashRecoveryExplore(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1, _ := newDurableServer(t, dir, 1)

	var ev exploreView
	postJSON(t, hs1.URL+"/v1/explore", exploreBody(), http.StatusAccepted, &ev)
	if !strings.HasPrefix(ev.ID, "explore-") {
		t.Fatalf("submit: %+v", ev)
	}
	id := ev.ID
	srv1.Terminate()
	hs1.Close()

	srv2, hs2, _ := newDurableServer(t, dir, 2)
	t.Cleanup(func() { hs2.Close(); srv2.Close() })

	deadline := time.Now().Add(2 * time.Minute)
	for {
		getJSON(t, hs2.URL+"/v1/explore/"+id, &ev)
		if ev.Status != statusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered exploration did not finish: %+v", ev)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ev.Status != statusDone || len(ev.Frontier) == 0 {
		t.Fatalf("recovered exploration: %+v", ev)
	}
}

// TestGracefulCloseReplaysExploration: a graceful Close in the middle of
// an exploration is not its end. The closing process reports it failed and
// leaves its manifest open, and the next process over the same journal and
// store re-drives it to the frontier an uninterrupted exploration finds,
// with every candidate evaluated.
func TestGracefulCloseReplaysExploration(t *testing.T) {
	body := exploreBody()
	body["insts"] = 20_000 // 16 runs on one worker: far from done when the first starts

	_, ref := newTestServer(t, results.NewMemoryLRU(256))
	var want exploreView
	postJSON(t, ref.URL+"/v1/explore", body, http.StatusAccepted, &want)
	if want = pollExplore(t, ref.URL, want.ID); want.Status != statusDone {
		t.Fatalf("uninterrupted exploration: %+v", want)
	}

	dir := t.TempDir()
	srv1, hs1, _ := newDurableServer(t, dir, 1)
	var ev exploreView
	postJSON(t, hs1.URL+"/v1/explore", body, http.StatusAccepted, &ev)
	id := ev.ID
	deadline := time.Now().Add(2 * time.Minute)
	for srv1.metrics.RunsStarted.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no run started before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	srv1.Close()
	hs1.Close()
	srv1.mu.Lock()
	status, msg := srv1.subs[id].view.Status, srv1.subs[id].view.Error
	srv1.mu.Unlock()
	if status != statusFailed || msg != errClosed.Error() {
		t.Errorf("after Close: status %s, error %q; want failed with %q", status, msg, errClosed)
	}

	srv2, hs2, _ := newDurableServer(t, dir, 2)
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	got := pollExplore(t, hs2.URL, id)
	if got.Status != statusDone || got.Evaluated != 8 || got.Failed != 0 {
		t.Fatalf("replayed exploration: status %s, evaluated %d, failed %d; want done, 8, 0", got.Status, got.Evaluated, got.Failed)
	}
	if !reflect.DeepEqual(got.Frontier, want.Frontier) {
		t.Errorf("replayed frontier %+v, want %+v", got.Frontier, want.Frontier)
	}
}

// TestRestartSweepJournalsOnlyItsManifest: a daemon restarted on a warm
// store answers a resubmitted sweep from the store. No run starts, and
// the journal log does not grow: the sweep is its manifest's file, and a
// member the store answers is never journaled as enqueued, so it needs
// no complete record either.
func TestRestartSweepJournalsOnlyItsManifest(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1, _ := newDurableServer(t, dir, 1)
	var sv sweepView
	postJSON(t, hs1.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	if final := pollSweep(t, hs1.URL, sv.ID); final.Status != statusDone || final.Done != 4 {
		t.Fatalf("cold sweep: %+v", final)
	}
	hs1.Close()
	srv1.Close()

	srv2, hs2, j2 := newDurableServer(t, dir, 1)
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	before := j2.Stats().Entries
	postJSON(t, hs2.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	final := pollSweep(t, hs2.URL, sv.ID)
	if final.Status != statusDone || final.Done != 4 || final.CacheHits != 4 {
		t.Fatalf("warm resubmission: %+v", final)
	}
	if n := srv2.metrics.RunsStarted.Load(); n != 0 {
		t.Errorf("RunsStarted = %d, want 0: every member is in the store", n)
	}
	if got := j2.Stats().Entries - before; got != 0 {
		t.Errorf("the resubmission appended %d journal records, want 0", got)
	}
}

// TestColdSweepJournalsOnlyItsManifest: a sweep's members are owed
// through its manifest, not the journal. A cold 2×2 sweep simulates all
// four members and appends no record: its manifest is written at submit
// and retired to done/ when it finishes, leaving the journal directory
// with the log, an empty manifests/ and the sweep's reply in done/.
func TestColdSweepJournalsOnlyItsManifest(t *testing.T) {
	dir := t.TempDir()
	srv, hs, j := newDurableServer(t, dir, 1)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	before := j.Stats().Entries
	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	if final := pollSweep(t, hs.URL, sv.ID); final.Status != statusDone || final.Done != 4 || final.CacheHits != 0 {
		t.Fatalf("cold sweep: %+v", final)
	}
	if n := srv.metrics.RunsStarted.Load(); n != 4 {
		t.Errorf("RunsStarted = %d, want 4: the sweep is cold", n)
	}
	if got := j.Stats().Entries - before; got != 0 {
		t.Errorf("the cold sweep appended %d journal records, want 0", got)
	}
	var files []string
	err := filepath.WalkDir(filepath.Join(dir, "journal"), func(p string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(filepath.Join(dir, "journal"), p)
		files = append(files, rel)
		return err
	})
	if want := []string{".", "done", filepath.Join("done", sv.ID+".json"), "journal.log", "manifests"}; err != nil || !slices.Equal(files, want) {
		t.Errorf("journal directory holds %v (%v), want %v", files, err, want)
	}
}

// TestExploreReplyFromManifestIsTheSame: a finished exploration answers
// with the same bytes from the registry and, once a later submission has
// evicted it, from its done manifest.
func TestExploreReplyFromManifestIsTheSame(t *testing.T) {
	j, err := journal.Open(t.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv, err := New(Options{Workers: 2, QueueDepth: 64, Store: results.NewMemoryLRU(64), Journal: j, maxSubmissions: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, srv)
	get := func(id string) []byte {
		resp, err := http.Get(hs + "/v1/explore/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET exploration = %d %v: %s", resp.StatusCode, err, b)
		}
		return b
	}
	var e1, e2 exploreView
	postJSON(t, hs+"/v1/explore", exploreBody(), http.StatusAccepted, &e1)
	if ev := pollExplore(t, hs, e1.ID); ev.Status != statusDone {
		t.Fatalf("exploration: %+v", ev)
	}
	fromRegistry := get(e1.ID)
	postJSON(t, hs+"/v1/explore", exploreBody(), http.StatusAccepted, &e2)
	srv.mu.Lock()
	_, registered := srv.subs[e1.ID]
	srv.mu.Unlock()
	if registered {
		t.Fatal("the finished exploration was not evicted")
	}
	if fromManifest := get(e1.ID); !bytes.Equal(fromManifest, fromRegistry) {
		t.Errorf("the manifest answers differently from the registry:\n%s\n%s", fromRegistry, fromManifest)
	}
	pollExplore(t, hs, e2.ID)
}

// TestUnpolledSweepsRetire: a sweep turns terminal when its last member
// settles, whether or not anyone polls it. Four cold sweeps that nobody
// polls each store their final reply and release their runs, so with a
// bound of one the registry keeps only the last, and the evicted ones are
// answered from their stored replies.
func TestUnpolledSweepsRetire(t *testing.T) {
	j, err := journal.Open(t.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv, err := New(Options{Workers: 2, QueueDepth: 64, Store: results.NewMemoryLRU(64), Journal: j, maxSubmissions: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, srv)
	var ids []string
	for i := range 4 {
		body := sweepBody()
		body["insts"] = testInsts + i // a cold grid each time
		var sv sweepView
		postJSON(t, hs+"/v1/sweeps", body, http.StatusAccepted, &sv)
		ids = append(ids, sv.ID)
		waitFor(t, "an unpolled sweep to retire", func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			sub := srv.subs[sv.ID]
			return sub != nil && sub.evictable
		})
	}
	srv.mu.Lock()
	registered, pinned := len(srv.subs), 0
	for _, st := range srv.runs {
		pinned += st.refs
	}
	srv.mu.Unlock()
	if registered != 1 || pinned != 0 {
		t.Errorf("%d submissions registered and %d run references held, want 1 and 0", registered, pinned)
	}
	for _, id := range ids {
		if j.Final(id) == nil {
			t.Errorf("sweep %s stored no final reply", id)
		}
		if _, open := j.GetManifest(id); open {
			t.Errorf("manifest %s still open; want retired", id)
		}
		var got sweepView
		getJSON(t, hs+"/v1/sweeps/"+id, &got)
		if got.Status != statusDone || got.Done != 4 {
			t.Errorf("sweep %s: %+v", id, got)
		}
	}
}

// TestSweepStaysRegisteredUntilItsManifestIsDone: a finished sweep may be
// evicted only once its stored final reply can answer for it. When that
// write fails, the sweep stays registered past the bound and is still
// served.
func TestSweepStaysRegisteredUntilItsManifestIsDone(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv, err := New(Options{Workers: -1, Fleet: &fleet.CoordinatorOptions{}, QueueDepth: 64,
		Store: results.NewMemoryLRU(64), Journal: j, maxSubmissions: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, srv)
	var s1, s2 sweepView
	postJSON(t, hs+"/v1/sweeps", sweepBody(), http.StatusAccepted, &s1)
	// A directory where the final reply goes makes retiring it fail.
	if err := os.Mkdir(filepath.Join(dir, "done", s1.ID+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	startWorker(t, hs, "w", nil)
	srv.mu.Lock()
	sub := srv.subs[s1.ID]
	srv.mu.Unlock()
	waitFor(t, "the sweep to finish", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return sub.retired != nil
	})
	<-sub.retired
	postJSON(t, hs+"/v1/sweeps", sweepBody(), http.StatusAccepted, &s2)
	var got sweepView
	getJSON(t, hs+"/v1/sweeps/"+s1.ID, &got)
	if got.ID != s1.ID || got.Status != statusDone || got.Done != 4 {
		t.Errorf("sweep whose done manifest failed: %+v", got)
	}
}

// TestRetiredSweepLeftOpenAnswersItsReply: a crash between storing a
// finished sweep's reply in done/ and removing its manifest leaves both
// files. The next process does not register the sweep again, starts no
// run, and answers its id with the stored reply byte for byte.
func TestRetiredSweepLeftOpenAnswersItsReply(t *testing.T) {
	dir := t.TempDir()
	store, err := results.NewDisk(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch-only, so the sweep stays open until a worker joins.
	srv1, err := New(Options{Workers: -1, Fleet: &fleet.CoordinatorOptions{}, QueueDepth: 64, Store: store, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	var sv sweepView
	postJSON(t, hs1.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	manifest := filepath.Join(dir, "journal", "manifests", sv.ID+".json")
	open, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	_, stop := startWorker(t, hs1.URL, "w", nil)
	if final := pollSweep(t, hs1.URL, sv.ID); final.Status != statusDone {
		t.Fatalf("sweep: %+v", final)
	}
	stop()
	want := getBody(t, hs1.URL+"/v1/sweeps/"+sv.ID)
	hs1.Close()
	srv1.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, open, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, hs2, j2 := newDurableServer(t, dir, 1)
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	srv2.mu.Lock()
	_, registered := srv2.subs[sv.ID]
	srv2.mu.Unlock()
	if n := len(j2.ReplayState().OpenManifests); registered || n != 0 {
		t.Errorf("the retired sweep was registered again (recovered %d manifests)", n)
	}
	if got := getBody(t, hs2.URL+"/v1/sweeps/"+sv.ID); !bytes.Equal(got, want) {
		t.Errorf("stored reply differs:\n got %s\nwant %s", got, want)
	}
	if n := srv2.metrics.RunsStarted.Load(); n != 0 {
		t.Errorf("RunsStarted = %d, want 0", n)
	}
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Errorf("the retired sweep's manifest was not removed: %v", err)
	}
}

// getBody GETs url and returns the body, requiring 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d %v: %s", url, resp.StatusCode, err, b)
	}
	return b
}

// TestLostRun pins the stuck-queued fix: polling an id the service
// neither registered nor stored gets a terminal lost state, not a 404
// loop — while garbage ids stay 404 and store-backed ids are served.
func TestLostRun(t *testing.T) {
	srv, hs := newTestServer(t, results.NewMemoryLRU(8))
	_ = srv

	unknownKey := strings.Repeat("ab", 32) // plausible 64-hex content key
	var v runView
	getJSON(t, hs.URL+"/v1/runs/"+unknownKey, &v)
	if v.Status != statusLost || v.Error == "" {
		t.Errorf("unknown key = %+v, want terminal lost with error", v)
	}
	if !v.Status.terminal() {
		t.Error("lost is not terminal; clients would poll forever")
	}

	// A key present only in the store (registry never saw it) is served.
	store := results.NewMemoryLRU(8)
	srv2, hs2 := newTestServer(t, store)
	_ = srv2
	res := results.Result{Key: unknownKey, Config: "c", Program: "gcc"}
	if err := store.Put(unknownKey, res); err != nil {
		t.Fatal(err)
	}
	getJSON(t, hs2.URL+"/v1/runs/"+unknownKey, &v)
	if v.Status != statusDone || !v.Cached || v.Result == nil || v.Result.Key != unknownKey {
		t.Errorf("store-backed key = %+v, want done+cached", v)
	}
}
