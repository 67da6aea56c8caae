package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/results"
)

// testOptions skips the fsyncs; no test here simulates a power loss.
var testOptions = Options{NoSync: true}

func job(key string) results.Job {
	return results.Job{Key: key, Request: results.Request{Schema: results.SchemaVersion, Program: key, Insts: 1000}}
}

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func appendAll(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func jobKeys(jobs []results.Job) []string {
	keys := make([]string, len(jobs))
	for i, jb := range jobs {
		keys[i] = jb.Key
	}
	return keys
}

func wantStrings(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
}

func enq(key string) Record {
	jb := job(key)
	return Record{Op: OpEnqueue, Job: &jb}
}

// TestAppendCrashReplay writes a mixed mutation history, "crashes"
// (never calls Close), and expects a fresh Open to reconstruct exactly
// the live jobs and open manifests, in order.
//
// The log also carries a lease line in the form coordinators used to
// write (nothing writes one now): it must still decode and replay to the
// same state as the history without it.
func TestAppendCrashReplay(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	history := []Record{
		enq("a"), enq("b"), enq("c"),
		{Op: OpComplete, Key: "b"},
		{Op: OpManifestOpen, Manifest: "sweep-1111111111111111"},
		{Op: OpManifestOpen, Manifest: "sweep-2222222222222222"},
		{Op: OpManifestDone, Manifest: "sweep-1111111111111111"},
		{Op: OpPoison, Key: "c"},
	}
	appendAll(t, j, history[:3]...)
	j.mu.Lock()
	_, err := j.f.WriteString(`{"op":"lease","key":"a","worker":"worker-0001"}` + "\n")
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, history[3:]...)

	j2 := mustOpen(t, dir, testOptions)
	st := j2.ReplayState()
	wantStrings(t, "replayed jobs", jobKeys(st.Jobs), []string{"a"})
	wantStrings(t, "open manifests", st.OpenManifests, []string{"sweep-2222222222222222"})
	if st.Entries != 9 {
		t.Errorf("Entries = %d, want 9", st.Entries)
	}
	if st.Torn {
		t.Error("Torn = true on a clean log")
	}
	if got := j2.Stats().Replayed; got != 9 {
		t.Errorf("Stats().Replayed = %d, want 9", got)
	}
	// The leased job replays with its full request intact.
	if st.Jobs[0].Request.Program != "a" {
		t.Errorf("replayed job lost its request: %+v", st.Jobs[0])
	}

	noLease := t.TempDir()
	appendAll(t, mustOpen(t, noLease, testOptions), history...)
	want := mustOpen(t, noLease, testOptions).ReplayState()
	if !reflect.DeepEqual(st.Jobs, want.Jobs) || !reflect.DeepEqual(st.OpenManifests, want.OpenManifests) {
		t.Errorf("the lease line changed the replayed state:\n got %+v\nwant %+v", st, want)
	}
}

// TestSettleOfKeyNotLiveWritesNothing: a complete or poison for a key no
// enqueue made live changes no state, so it appends nothing — neither an
// entry nor a byte of journal.log — and replay sees the same jobs.
func TestSettleOfKeyNotLiveWritesNothing(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	appendAll(t, j, enq("a"), enq("b"), Record{Op: OpComplete, Key: "b"})
	logPath := filepath.Join(dir, "journal.log")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	entries := j.Stats().Entries
	appendAll(t, j, Record{Op: OpComplete, Key: "b"}, Record{Op: OpPoison, Key: "b"},
		Record{Op: OpComplete, Key: "never"}, Record{Op: OpPoison, Key: "never"})
	if got := j.Stats().Entries; got != entries {
		t.Errorf("Entries = %d after settling keys that are not live, want %d", got, entries)
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("journal.log changed:\nbefore %s\nafter  %s", before, after)
	}
	wantStrings(t, "replayed jobs", jobKeys(mustOpen(t, dir, testOptions).ReplayState().Jobs), []string{"a"})
}

// TestCheckpointByCount expects an automatic compaction after
// checkpointEvery appends: the log truncates and a crash replays from
// the checkpoint, not the records.
func TestCheckpointByCount(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	appendAll(t, j, enq("a"), enq("b"), Record{Op: OpComplete, Key: "a"})
	for i := 3; i < checkpointEvery; i++ {
		appendAll(t, j, enq("d")) // re-enqueues of a live key keep its place
	}
	if got := j.Stats().Checkpoints; got != 2 { // one at Open, one automatic
		t.Fatalf("Checkpoints = %d, want 2", got)
	}
	if fi, err := os.Stat(filepath.Join(dir, "journal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("log not truncated after checkpoint: %v %d", err, fi.Size())
	}
	// Records after the checkpoint land in the fresh log.
	appendAll(t, j, enq("e"))

	j2 := mustOpen(t, dir, testOptions)
	st := j2.ReplayState()
	wantStrings(t, "replayed jobs", jobKeys(st.Jobs), []string{"b", "d", "e"})
	if st.Entries != 1 {
		t.Errorf("Entries = %d, want 1 (only the post-checkpoint record)", st.Entries)
	}
}

// TestTornFinalRecord simulates a crash mid-append: the log ends in a
// truncated record, which replay must discard — losing only that one
// mutation — and report.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	appendAll(t, j, enq("a"), enq("b"), Record{Op: OpComplete, Key: "a"})
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"complete","ke`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := mustOpen(t, dir, testOptions)
	st := j2.ReplayState()
	if !st.Torn {
		t.Error("Torn = false, want true")
	}
	if got := j2.Stats().Torn; got != 1 {
		t.Errorf("Stats().Torn = %d, want 1", got)
	}
	wantStrings(t, "replayed jobs", jobKeys(st.Jobs), []string{"b"})
	// The compaction at Open cleared the torn tail: a third open is clean.
	j3 := mustOpen(t, dir, testOptions)
	if st := j3.ReplayState(); st.Torn {
		t.Error("torn tail survived the recovery compaction")
	}
}

// TestReplayIdempotent re-applies history over a state that already
// absorbed it (the crash-between-checkpoint-and-truncate window):
// duplicate enqueues and completes for missing keys must converge, not
// error or duplicate.
func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	appendAll(t, j,
		enq("a"), enq("a"), // duplicate enqueue
		Record{Op: OpComplete, Key: "zzz"},                             // complete for an unknown key
		Record{Op: OpManifestDone, Manifest: "sweep-0000000000000000"}, // done without open
		enq("b"), Record{Op: OpComplete, Key: "b"}, enq("b"), // re-enqueue after completion
	)
	j2 := mustOpen(t, dir, testOptions)
	wantStrings(t, "replayed jobs", jobKeys(j2.ReplayState().Jobs), []string{"a", "b"})
}

// TestReenqueueTakesItsNewPlace: a key that completes and is enqueued
// again replays where the second enqueue put it, and so does a manifest
// reopened after it was done — in the log, and in the checkpoint a
// reopen compacts it into.
func TestReenqueueTakesItsNewPlace(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	appendAll(t, j,
		enq("a"), enq("b"), Record{Op: OpComplete, Key: "a"}, enq("a"),
		Record{Op: OpManifestOpen, Manifest: "m1"}, Record{Op: OpManifestOpen, Manifest: "m2"},
		Record{Op: OpManifestDone, Manifest: "m1"}, Record{Op: OpManifestOpen, Manifest: "m1"},
	)
	for _, pass := range []string{"log", "checkpoint"} {
		j = mustOpen(t, dir, testOptions)
		wantStrings(t, pass+": replayed jobs", jobKeys(j.ReplayState().Jobs), []string{"b", "a"})
		wantStrings(t, pass+": open manifests", j.ReplayState().OpenManifests, []string{"m2", "m1"})
	}
}

// TestOrderStaysBoundedByLiveSet: a long-lived journal whose jobs come
// and go keeps its order slices within one checkpoint's worth of appends
// of the live set, and exactly the live set after a checkpoint.
func TestOrderStaysBoundedByLiveSet(t *testing.T) {
	j := mustOpen(t, t.TempDir(), testOptions)
	appendAll(t, j, enq("resident"), Record{Op: OpManifestOpen, Manifest: "m-resident"})
	for i := 0; i < 10_000; i++ {
		key, id := fmt.Sprintf("k%d", i%7), fmt.Sprintf("m%d", i%5)
		appendAll(t, j,
			enq(key), Record{Op: OpComplete, Key: key},
			Record{Op: OpManifestOpen, Manifest: id}, Record{Op: OpManifestDone, Manifest: id},
		)
		j.mu.Lock()
		lo, oo, live, open := len(j.liveOrder), len(j.openOrder), len(j.live), len(j.open)
		j.mu.Unlock()
		if lo > live+checkpointEvery || oo > open+checkpointEvery {
			t.Fatalf("cycle %d: liveOrder %d for %d live jobs, openOrder %d for %d open manifests", i, lo, live, oo, open)
		}
	}
	j.mu.Lock()
	err := j.checkpointLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	wantStrings(t, "liveOrder after a checkpoint", j.liveOrder, []string{"resident"})
	wantStrings(t, "openOrder after a checkpoint", j.openOrder, []string{"m-resident"})
}

// TestManifestRoundTrip covers manifest persistence: put/get, missing
// ids, and MarkManifestDone closing the manifest durably (Done + Final
// on disk, removed from the open set on replay).
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)

	if _, ok, err := j.GetManifest("sweep-aaaaaaaaaaaaaaaa"); err != nil || ok {
		t.Fatalf("missing manifest: ok=%v err=%v, want absent", ok, err)
	}
	m, err := results.NewSweepManifest([]results.Job{job("k1"), job("k2")})
	if err != nil {
		t.Fatal(err)
	}
	id := "sweep-feedfeedfeedfeed"
	if err := j.PutManifest(id, m); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, Record{Op: OpManifestOpen, Manifest: id})

	got, ok, err := j.GetManifest(id)
	if err != nil || !ok {
		t.Fatalf("GetManifest: ok=%v err=%v", ok, err)
	}
	wantStrings(t, "manifest keys", got.Keys(), []string{"k1", "k2"})
	if got.Done {
		t.Error("fresh manifest already done")
	}

	if err := j.MarkManifestDone(id, []byte(`{"status":"done"}`)); err != nil {
		t.Fatal(err)
	}
	got, ok, err = j.GetManifest(id)
	if err != nil || !ok || !got.Done || string(got.Final) != `{"status":"done"}` {
		t.Fatalf("manifest after done: %+v ok=%v err=%v", got, ok, err)
	}
	j2 := mustOpen(t, dir, testOptions)
	if open := j2.ReplayState().OpenManifests; len(open) != 0 {
		t.Errorf("done manifest still open after replay: %v", open)
	}
	// Path traversal in ids is refused.
	if err := j.PutManifest("../escape", m); err == nil {
		t.Error("PutManifest accepted a traversal id")
	}
}
