package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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
// the live jobs, in order, and to list the manifests still open.
//
// The log also carries a lease line and manifest open and done lines in
// the forms older coordinators wrote (nothing writes them now): they must
// still decode and replay to the same state as the history without them.
func TestAppendCrashReplay(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	history := []Record{
		enq("a"), enq("b"), enq("c"),
		{Op: OpComplete, Key: "b"},
		{Op: OpPoison, Key: "c"},
	}
	appendAll(t, j, history[:3]...)
	j.mu.Lock()
	_, err := j.f.WriteString(`{"op":"lease","key":"a","worker":"worker-0001"}` + "\n" +
		`{"op":"manifest","manifest":"sweep-1111111111111111"}` + "\n" +
		`{"op":"manifest_done","manifest":"sweep-2222222222222222"}` + "\n")
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, history[3:]...)
	putManifests := func(j *Journal) {
		for _, id := range []string{"sweep-1111111111111111", "sweep-2222222222222222"} {
			if err := j.PutManifest(id, results.Manifest{Kind: results.ManifestKindSweep}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.RetireManifest("sweep-1111111111111111", []byte(`{"id":"sweep-1111111111111111"}`)); err != nil {
			t.Fatal(err)
		}
	}
	putManifests(j)

	j2 := mustOpen(t, dir, testOptions)
	st := j2.ReplayState()
	wantStrings(t, "replayed jobs", jobKeys(st.Jobs), []string{"a"})
	wantStrings(t, "open manifests", st.OpenManifests, []string{"sweep-2222222222222222"})
	if st.Entries != 8 {
		t.Errorf("Entries = %d, want 8", st.Entries)
	}
	if st.Torn {
		t.Error("Torn = true on a clean log")
	}
	if got := j2.Stats().Replayed; got != 9 { // 8 records and 1 open manifest
		t.Errorf("Stats().Replayed = %d, want 9", got)
	}
	// The leased job replays with its full request intact.
	if st.Jobs[0].Request.Program != "a" {
		t.Errorf("replayed job lost its request: %+v", st.Jobs[0])
	}

	plain := t.TempDir()
	jp := mustOpen(t, plain, testOptions)
	appendAll(t, jp, history...)
	putManifests(jp)
	want := mustOpen(t, plain, testOptions).ReplayState()
	if !reflect.DeepEqual(st.Jobs, want.Jobs) || !reflect.DeepEqual(st.OpenManifests, want.OpenManifests) {
		t.Errorf("the old lines changed the replayed state:\n got %+v\nwant %+v", st, want)
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
// compactEvery appends: the log is rewritten to one enqueue per live job,
// in order, and a crash replays those and the records appended since.
func TestCheckpointByCount(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	appendAll(t, j, enq("a"), enq("b"), Record{Op: OpComplete, Key: "a"})
	for i := 3; i < compactEvery; i++ {
		appendAll(t, j, enq("d")) // re-enqueues of a live key keep its place
	}
	if got := j.Stats().Checkpoints; got != 2 { // one at Open, one automatic
		t.Fatalf("Checkpoints = %d, want 2", got)
	}
	wantLog(t, dir, enq("b"), enq("d"))
	// Records after the compaction land in the compacted log.
	appendAll(t, j, enq("e"))
	wantLog(t, dir, enq("b"), enq("d"), enq("e"))

	j2 := mustOpen(t, dir, testOptions)
	st := j2.ReplayState()
	wantStrings(t, "replayed jobs", jobKeys(st.Jobs), []string{"b", "d", "e"})
	if st.Entries != 3 {
		t.Errorf("Entries = %d, want 3 (two compacted enqueues and one appended)", st.Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); !os.IsNotExist(err) {
		t.Errorf("checkpoint.json written: %v", err)
	}
}

// wantLog asserts that journal.log holds exactly recs, one JSON line each.
func wantLog(t *testing.T, dir string, recs ...Record) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal.log =\n%s\nwant\n%s", got, want)
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

// TestReplayIdempotent: duplicate enqueues and completes for unknown
// keys converge, not error or duplicate, and a log replayed and compacted
// replays to the same jobs again.
func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	appendAll(t, j,
		enq("a"), enq("a"), // duplicate enqueue
		Record{Op: OpComplete, Key: "zzz"},                   // complete for an unknown key
		enq("b"), Record{Op: OpComplete, Key: "b"}, enq("b"), // re-enqueue after completion
	)
	for _, pass := range []string{"log", "compacted log"} {
		wantStrings(t, pass+": replayed jobs", jobKeys(mustOpen(t, dir, testOptions).ReplayState().Jobs), []string{"a", "b"})
	}
}

// TestReenqueueTakesItsNewPlace: a key that completes and is enqueued
// again replays where the second enqueue put it — in the log, and in the
// compacted log a reopen rewrites it to.
func TestReenqueueTakesItsNewPlace(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	appendAll(t, j, enq("a"), enq("b"), Record{Op: OpComplete, Key: "a"}, enq("a"))
	for _, pass := range []string{"log", "compacted log"} {
		j = mustOpen(t, dir, testOptions)
		wantStrings(t, pass+": replayed jobs", jobKeys(j.ReplayState().Jobs), []string{"b", "a"})
	}
}

// TestOrderStaysBoundedByLiveSet: a long-lived journal whose jobs come
// and go keeps its order slice within one compaction's worth of appends
// of the live set, and exactly the live set after a compaction.
func TestOrderStaysBoundedByLiveSet(t *testing.T) {
	j := mustOpen(t, t.TempDir(), testOptions)
	appendAll(t, j, enq("resident"))
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("k%d", i%7)
		appendAll(t, j, enq(key), Record{Op: OpComplete, Key: key})
		j.mu.Lock()
		lo, live := len(j.liveOrder), len(j.live)
		j.mu.Unlock()
		if lo > live+compactEvery {
			t.Fatalf("cycle %d: liveOrder %d for %d live jobs", i, lo, live)
		}
	}
	j.mu.Lock()
	err := j.compactLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	wantStrings(t, "liveOrder after a compaction", j.liveOrder, []string{"resident"})
}

// TestManifestRoundTrip covers manifest persistence: put/get, missing
// ids, and RetireManifest storing the final reply byte-exact in done/ and
// removing the open manifest, so replay no longer lists it; a retire
// without a reply only removes it.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)

	if _, ok := j.GetManifest("sweep-aaaaaaaaaaaaaaaa"); ok {
		t.Fatal("missing manifest read as present")
	}
	if j.Final("sweep-aaaaaaaaaaaaaaaa") != nil {
		t.Fatal("a reply for a submission never retired")
	}
	m, err := results.NewSweepManifest([]results.Job{job("k1"), job("k2")})
	if err != nil {
		t.Fatal(err)
	}
	id, gone := "sweep-feedfeedfeedfeed", "sweep-0000000000000000"
	for _, id := range []string{id, gone} {
		if err := j.PutManifest(id, m); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := j.GetManifest(id); !ok || !reflect.DeepEqual(got, m) {
		t.Fatalf("GetManifest: %+v ok=%v, want %+v", got, ok, m)
	}
	wantStrings(t, "open manifests", mustOpen(t, dir, testOptions).ReplayState().OpenManifests, []string{gone, id})

	final := []byte(`{"id":"sweep-feedfeedfeedfeed","status":"done"}`)
	if err := j.RetireManifest(id, final); err != nil {
		t.Fatal(err)
	}
	if err := j.RetireManifest(gone, nil); err != nil {
		t.Fatal(err)
	}
	if got := j.Final(id); !bytes.Equal(got, final) {
		t.Errorf("stored reply %s, want %s", got, final)
	}
	if j.Final(gone) != nil {
		t.Error("a retire without a reply stored one")
	}
	if _, ok := j.GetManifest(id); ok {
		t.Error("retired manifest still open")
	}
	if open := mustOpen(t, dir, testOptions).ReplayState().OpenManifests; len(open) != 0 {
		t.Errorf("retired manifests still open after replay: %v", open)
	}
	// Path traversal in ids is refused.
	if err := j.PutManifest("../escape", m); err == nil {
		t.Error("PutManifest accepted a traversal id")
	}
	if j.Final("../escape") != nil {
		t.Error("Final read outside done/")
	}
}

// TestDoneIsBounded: done/ keeps the newest maxDone replies. Retiring
// maxDone+k of them prunes the k oldest, whose ids then read as unknown,
// while the rest read back byte-identically; a reopen over a done/ grown
// past the bound prunes its oldest replies by modification time.
func TestDoneIsBounded(t *testing.T) {
	const k = 3
	dir := t.TempDir()
	// Names descend as replies get newer: name order is not age order.
	id := func(i int) string { return fmt.Sprintf("sweep-%016d", maxDone+k-i) }
	reply := func(i int) []byte { return []byte(fmt.Sprintf(`{"id":%q,"status":"done"}`+"\n", id(i))) }
	checkDone := func(j *Journal, first int) {
		t.Helper()
		for i := range maxDone + k {
			got := j.Final(id(i))
			switch {
			case i < first && got != nil:
				t.Fatalf("reply %d of %d outlived the bound", i, maxDone+k)
			case i >= first && !bytes.Equal(got, reply(i)):
				t.Fatalf("reply %d reads back %q, want %q", i, got, reply(i))
			}
		}
		if entries, err := os.ReadDir(filepath.Join(dir, doneDir)); err != nil || len(entries) != maxDone {
			t.Fatalf("done/ holds %d entries (%v), want %d", len(entries), err, maxDone)
		}
	}

	j := mustOpen(t, dir, testOptions)
	for i := range maxDone + k {
		if err := j.RetireManifest(id(i), reply(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkDone(j, k)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// k replies older than every other, as a coordinator that never
	// pruned would have left them.
	old := time.Now().Add(-time.Hour)
	for i := range k {
		p := filepath.Join(dir, doneDir, id(i)+".json")
		if err := os.WriteFile(p, reply(i), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	j = mustOpen(t, dir, testOptions)
	defer j.Close()
	checkDone(j, k)
}

// TestTornAtEveryByte tears journal.log at every byte of its final
// record, for each kind of record: every reopen recovers the jobs from
// before that record or from after it, and nothing else.
func TestTornAtEveryByte(t *testing.T) {
	for _, last := range []Record{enq("c"), {Op: OpComplete, Key: "a"}, {Op: OpPoison, Key: "b"}} {
		src := t.TempDir()
		j := mustOpen(t, src, testOptions)
		appendAll(t, j, enq("a"), enq("b"))
		before := jobKeys(mustOpen(t, src, testOptions).ReplayState().Jobs)
		prefix, err := os.ReadFile(filepath.Join(src, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}
		j = mustOpen(t, src, testOptions)
		appendAll(t, j, last)
		full, err := os.ReadFile(filepath.Join(src, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}
		after := jobKeys(mustOpen(t, src, testOptions).ReplayState().Jobs)
		if !bytes.HasPrefix(full, prefix) || reflect.DeepEqual(before, after) {
			t.Fatalf("%s: setup broken: the record must change the jobs and extend the log", last.Op)
		}
		dir := t.TempDir()
		for k := 0; k <= len(full)-len(prefix); k++ {
			if err := os.WriteFile(filepath.Join(dir, "journal.log"), full[:len(prefix)+k], 0o644); err != nil {
				t.Fatal(err)
			}
			got := jobKeys(mustOpen(t, dir, testOptions).ReplayState().Jobs)
			switch {
			case k == 0 && !reflect.DeepEqual(got, before), k == len(full)-len(prefix) && !reflect.DeepEqual(got, after):
				t.Fatalf("%s torn after %d bytes: jobs %v", last.Op, k, got)
			case !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after):
				t.Fatalf("%s torn after %d bytes: jobs %v, want %v or %v", last.Op, k, got, before, after)
			}
		}
	}
}

// TestRetiredManifestLeftOpen: a crash between storing a submission's
// reply and removing its manifest leaves both files. The reply may have
// reached the client, so Open removes the manifest instead of listing it,
// and the stored reply stays.
func TestRetiredManifestLeftOpen(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions)
	id, final := "sweep-1111111111111111", []byte(`{"id":"sweep-1111111111111111","status":"done"}`)
	m := results.Manifest{Kind: results.ManifestKindSweep, Jobs: []results.Job{job("k")}}
	if err := j.PutManifest(id, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "done", id+".json"), final, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, testOptions)
	if open := j2.ReplayState().OpenManifests; len(open) != 0 {
		t.Errorf("open manifests %v, want none", open)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifests", id+".json")); !os.IsNotExist(err) {
		t.Errorf("the retired manifest was not removed: %v", err)
	}
	if got := j2.Final(id); !bytes.Equal(got, final) {
		t.Errorf("stored reply %s, want %s", got, final)
	}
}

// TestUpgradeFromCheckpoint opens a directory in the format of the
// coordinators that kept checkpoint.json and marked finished manifests
// done in place: the same live jobs and open manifest recover, the done
// manifest's reply answers from done/, and checkpoint.json is gone. A
// crash part-way through the upgrade — the reply moved, the manifest and
// the checkpoint still there — upgrades to the same directory.
func TestUpgradeFromCheckpoint(t *testing.T) {
	open, done := "sweep-0000000000000001", "sweep-0000000000000002"
	final := `{"id":"sweep-0000000000000002","status":"done","total":1}`
	m := results.Manifest{Schema: results.SchemaVersion, Kind: results.ManifestKindSweep, Nonce: "01", Jobs: []results.Job{job("k")}}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	doneBody := append(body[:len(body)-1:len(body)-1], `,"done":true,"final":`+final+`}`...)
	jobLine := func(key string) string {
		b, err := json.Marshal(enq(key))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cp, err := json.Marshal(map[string]any{"jobs": []results.Job{job("a"), job("b")}, "manifests": []string{open, done}})
	if err != nil {
		t.Fatal(err)
	}
	for _, crashed := range []bool{false, true} {
		dir := t.TempDir()
		files := map[string]string{
			"checkpoint.json": string(cp),
			"journal.log": jobLine("c") + "\n" + `{"op":"complete","key":"a"}` + "\n" +
				`{"op":"manifest","manifest":"` + open + `"}` + "\n" + `{"op":"manifest_done","manifest":"` + done + `"}` + "\n",
			"manifests/" + open + ".json": string(body) + "\n",
			"manifests/" + done + ".json": string(doneBody) + "\n",
		}
		if crashed {
			files["done/"+done+".json"] = final
		}
		for name, content := range files {
			p := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, pass := range []string{"upgrade", "reopen"} {
			j := mustOpen(t, dir, testOptions)
			st := j.ReplayState()
			wantStrings(t, pass+": replayed jobs", jobKeys(st.Jobs), []string{"b", "c"})
			wantStrings(t, pass+": open manifests", st.OpenManifests, []string{open})
			if got, ok := j.GetManifest(open); !ok || !reflect.DeepEqual(got, m) {
				t.Errorf("%s: open manifest %+v ok=%v", pass, got, ok)
			}
			if got := j.Final(done); string(got) != final {
				t.Errorf("%s: done reply %s, want %s", pass, got, final)
			}
			for _, gone := range []string{"checkpoint.json", "manifests/" + done + ".json"} {
				if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
					t.Errorf("%s (crashed %v): %s still there: %v", pass, crashed, gone, err)
				}
			}
		}
	}
}
