package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/results"
	"repro/internal/workload"
)

// wireServer is a dispatch-only coordinator over a journal and a memory
// store: nothing simulates, so every run stays queued until the test
// leases it and completes it with a record of its choosing.
type wireServer struct {
	t     *testing.T
	srv   *Server
	url   string
	store results.Store
	// records are the records completed so far, by key.
	records map[string]results.Result
}

func newWireServer(t *testing.T, maxSubmissions int) *wireServer {
	t.Helper()
	j, err := journal.Open(filepath.Join(t.TempDir(), "journal"), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	store := results.NewMemoryLRU(256)
	srv, err := New(Options{
		Workers: -1, Fleet: &fleet.CoordinatorOptions{}, QueueDepth: 256,
		Store: store, Journal: j, maxSubmissions: maxSubmissions,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close(); j.Close() })
	return &wireServer{t: t, srv: srv, url: hs.URL, store: store, records: map[string]results.Result{}}
}

// do sends one request (a non-nil body is JSON-encoded, a string is sent
// as is) and returns the reply's status and bytes.
func (ws *wireServer) do(method, path string, body any) (int, []byte) {
	ws.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			ws.t.Fatal(err)
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, ws.url+path, rd)
	if err != nil {
		ws.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ws.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		ws.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// waitPending waits until the pool holds n jobs (sweep feeders enqueue
// asynchronously).
func (ws *wireServer) waitPending(n int) {
	ws.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ws.srv.fleet.Stats().Pending != n {
		if time.Now().After(deadline) {
			ws.t.Fatalf("pool holds %d jobs, want %d", ws.srv.fleet.Stats().Pending, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// registered reports whether the submission registry holds id.
func (ws *wireServer) registered(id string) bool {
	ws.srv.mu.Lock()
	defer ws.srv.mu.Unlock()
	_, ok := ws.srv.subs[id]
	return ok
}

// record is the made-up record the test completes a job with; failMsg
// non-empty makes it a failure.
func record(j results.Job, n int, failMsg string) results.Result {
	res := results.Result{
		Key: j.Key, Config: j.Request.Config.Name, Program: j.Request.WorkloadLabel(), Class: "INT",
		Err: failMsg,
	}
	res.Stats.Cycles = uint64(1000 + n)
	res.Stats.Committed = uint64(2000 + 3*n)
	return res
}

// sameAs decodes a reply into a fresh T, refusing unknown fields, and
// requires the reply to be exactly json.Marshal of that value plus a
// newline: what the client decodes is what the struct encodes.
func sameAs[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("reply does not decode as %T: %v\n%s", v, err, body)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Fatalf("reply is not json.Marshal of its %T:\n got %s\nwant %s", v, body, want)
	}
	return v
}

// TestRepliesMatchTheirStructs walks one coordinator through every reply
// shape the API has — runs queued, done, cached, failed, from the store
// and lost; sweeps queued, running, done, failed, re-attached from their
// final view, and unfinished past the bound; the fleet protocol; an
// exploration; healthz; error bodies — and requires each reply to be the
// bytes json.Marshal writes for its struct. Records are checked against
// the ones the test completed, so a spliced record is the record.
func TestRepliesMatchTheirStructs(t *testing.T) {
	ws := newWireServer(t, 1)
	step := func(name string, f func(t *testing.T)) {
		if !t.Run(name, f) {
			t.FailNow()
		}
	}
	var worker fleet.RegisterResponse
	lease := func(t *testing.T, max int) []results.Job {
		code, body := ws.do("POST", "/v1/fleet/lease", fleet.LeaseRequest{WorkerID: worker.WorkerID, Max: max})
		if code != http.StatusOK {
			t.Fatalf("lease = %d: %s", code, body)
		}
		return sameAs[fleet.LeaseResponse](t, body).Jobs
	}
	complete := func(t *testing.T, recs ...results.Result) {
		code, body := ws.do("POST", "/v1/fleet/complete", fleet.CompleteRequest{WorkerID: worker.WorkerID, ResultBatch: results.ResultBatch{Results: recs}})
		if code != http.StatusOK {
			t.Fatalf("complete = %d: %s", code, body)
		}
		if cr := sameAs[fleet.CompleteResponse](t, body); cr.Accepted != len(recs) {
			t.Fatalf("complete accepted %d of %d", cr.Accepted, len(recs))
		}
		for _, r := range recs {
			ws.records[r.Key] = r
		}
	}
	// checkRecords requires every result a view carries to be the record
	// the test completed.
	checkRecords := func(t *testing.T, rvs []runView, listed []results.Result) {
		for _, rv := range rvs {
			if rv.Result == nil {
				continue
			}
			if want, ok := ws.records[rv.ID]; !ok || !reflect.DeepEqual(*rv.Result, want) {
				t.Errorf("run %s carries %+v, want %+v", rv.ID, *rv.Result, want)
			}
		}
		for i, r := range listed {
			if !reflect.DeepEqual(r, ws.records[rvs[i].ID]) {
				t.Errorf("results[%d] = %+v, want run %s's record", i, r, rvs[i].ID)
			}
		}
	}
	getSweep := func(t *testing.T, id string) (sweepView, []byte) {
		code, body := ws.do("GET", "/v1/sweeps/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET sweep = %d: %s", code, body)
		}
		sv := sameAs[sweepView](t, body)
		checkRecords(t, sv.Runs, sv.Results)
		return sv, body
	}
	paper := map[string]any{"paper": map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1}}
	runBody := map[string]any{"paper": paper["paper"], "program": "mcf", "insts": testInsts, "warmup": testWarmup}
	sweep := func(programs ...string) map[string]any {
		return map[string]any{"configs": []any{paper}, "programs": programs, "insts": testInsts, "warmup": testWarmup}
	}

	var runID string
	step("run submitted, queued", func(t *testing.T) {
		code, body := ws.do("POST", "/v1/runs", runBody)
		rv := sameAs[runView](t, body)
		if code != http.StatusAccepted || rv.Status != statusQueued || rv.Result != nil {
			t.Fatalf("submit = %d %+v", code, rv)
		}
		runID = rv.ID
	})
	var sweep1 string
	step("sweep submitted, members queued", func(t *testing.T) {
		code, body := ws.do("POST", "/v1/sweeps", sweep("gcc", "swim", "art"))
		sv := sameAs[sweepView](t, body)
		if code != http.StatusAccepted || sv.Status != statusRunning || sv.Total != 3 || sv.Runs[0].Status != statusQueued {
			t.Fatalf("submit = %d %+v", code, sv)
		}
		sweep1 = sv.ID
		ws.waitPending(4)
	})
	step("fleet register", func(t *testing.T) {
		code, body := ws.do("POST", "/v1/fleet/workers", fleet.RegisterRequest{Name: "wire", Capacity: 4})
		if code != http.StatusOK {
			t.Fatalf("register = %d: %s", code, body)
		}
		worker = sameAs[fleet.RegisterResponse](t, body)
	})
	var jobs []results.Job
	step("fleet lease, sweep running", func(t *testing.T) {
		jobs = lease(t, 2)
		sv, _ := getSweep(t, sweep1)
		if sv.Status != statusRunning || sv.Done != 0 {
			t.Fatalf("sweep %+v", sv)
		}
		for len(jobs) < 4 {
			jobs = append(jobs, lease(t, 64)...)
		}
	})
	step("fleet complete, sweep half done", func(t *testing.T) {
		var first, rest []results.Result
		for i, j := range jobs {
			r := record(j, i, "")
			if j.Key == runID || len(first) > 0 {
				rest = append(rest, r)
			} else {
				first = append(first, r)
			}
		}
		complete(t, first...)
		if sv, _ := getSweep(t, sweep1); sv.Status != statusRunning || sv.Done != 1 {
			t.Fatalf("sweep %+v", sv)
		}
		complete(t, rest...)
	})
	step("sweep done, rendered once", func(t *testing.T) {
		sv, body := getSweep(t, sweep1)
		if sv.Status != statusDone || sv.Done != 3 || len(sv.Results) != 3 {
			t.Fatalf("sweep %+v", sv)
		}
		if _, again := getSweep(t, sweep1); !bytes.Equal(again, body) {
			t.Fatalf("a done sweep answered differently:\n%s\n%s", body, again)
		}
	})
	step("run done and resubmitted", func(t *testing.T) {
		_, body := ws.do("GET", "/v1/runs/"+runID, nil)
		rv := sameAs[runView](t, body)
		checkRecords(t, []runView{rv}, nil)
		if rv.Status != statusDone || rv.Cached || rv.Result == nil {
			t.Fatalf("run %+v", rv)
		}
		code, body := ws.do("POST", "/v1/runs", runBody)
		rv = sameAs[runView](t, body)
		checkRecords(t, []runView{rv}, nil)
		if code != http.StatusAccepted || rv.Status != statusDone || !rv.Cached {
			t.Fatalf("resubmit = %d %+v", code, rv)
		}
	})
	var sweep2 string
	step("sweep failed, first sweep re-attached from its final view", func(t *testing.T) {
		_, final := getSweep(t, sweep1)
		code, body := ws.do("POST", "/v1/sweeps", sweep("gcc", "gzip"))
		sv := sameAs[sweepView](t, body)
		if code != http.StatusAccepted || sv.CacheHits != 1 {
			t.Fatalf("submit = %d %+v", code, sv)
		}
		sweep2 = sv.ID
		// MaxSubmissions 1: the registry forgot sweep1, its manifest answers.
		if ws.registered(sweep1) {
			t.Fatal("sweep1 still registered")
		}
		if _, again := getSweep(t, sweep1); !bytes.Equal(again, final) {
			t.Fatalf("re-attached final view differs:\n%s\n%s", final, again)
		}
		ws.waitPending(1)
		jb := lease(t, 64)
		complete(t, record(jb[0], 7, "boom: <script>&\u2028\"quoted\"\\"))
		sv, _ = getSweep(t, sweep2)
		if sv.Status != statusFailed || sv.Failed != 1 || len(sv.Results) != 2 {
			t.Fatalf("sweep %+v", sv)
		}
		_, body = ws.do("GET", "/v1/runs/"+jb[0].Key, nil)
		if rv := sameAs[runView](t, body); rv.Status != statusFailed || rv.Result == nil || !rv.Result.Failed() {
			t.Fatalf("failed run %+v", rv)
		}
	})
	step("sweep re-attached and reconstructed", func(t *testing.T) {
		_, body := ws.do("POST", "/v1/sweeps", sweep("bzip2", "gcc"))
		sweep3 := sameAs[sweepView](t, body).ID
		ws.waitPending(1)
		_, body = ws.do("POST", "/v1/sweeps", sweep("vpr"))
		sameAs[sweepView](t, body)
		ws.waitPending(2)
		if !ws.registered(sweep3) {
			t.Fatal("unfinished sweep3 was evicted")
		}
		if sv, _ := getSweep(t, sweep3); sv.Status != statusRunning || sv.Done != 1 || sv.Results != nil {
			t.Fatalf("reconstructed sweep %+v", sv)
		}
		for _, j := range lease(t, 64) {
			complete(t, record(j, 9, ""))
		}
		if sv, _ := getSweep(t, sweep3); sv.Status != statusDone || len(sv.Results) != 2 {
			t.Fatalf("reconstructed sweep %+v", sv)
		}
	})
	step("runs from the store, and lost", func(t *testing.T) {
		for i, fail := range []string{"", "stored failure"} {
			req := harness.Request{Config: core.MustPaperConfig(core.ArchConv, 8, 2, 1), Workload: workload.Single("eon"), Insts: uint64(100 + i)}
			j, err := results.NewJob(results.NewRequest(req))
			if err != nil {
				t.Fatal(err)
			}
			r := record(j, 11+i, fail)
			if err := ws.store.Put(j.Key, r); err != nil {
				t.Fatal(err)
			}
			ws.records[j.Key] = r
			_, body := ws.do("GET", "/v1/runs/"+j.Key, nil)
			rv := sameAs[runView](t, body)
			checkRecords(t, []runView{rv}, nil)
			if !rv.Cached || rv.Result == nil || rv.Result.Failed() != (fail != "") {
				t.Fatalf("stored run %+v", rv)
			}
		}
		_, body := ws.do("GET", "/v1/runs/"+strings.Repeat("0", 64), nil)
		if rv := sameAs[runView](t, body); rv.Status != statusLost || rv.Error == "" {
			t.Fatalf("lost run %+v", rv)
		}
	})
	step("fleet status, healthz, errors", func(t *testing.T) {
		_, body := ws.do("GET", "/v1/fleet", nil)
		sameAs[fleetStatusView](t, body)
		_, body = ws.do("GET", "/healthz", nil)
		sameAs[map[string]any](t, body)
		for _, c := range []struct {
			method, path string
			body         any
			code         int
		}{
			{"GET", "/v1/runs/nope", nil, http.StatusNotFound},
			{"GET", "/v1/sweeps/nope", nil, http.StatusNotFound},
			{"GET", "/v1/explore/nope", nil, http.StatusNotFound},
			{"POST", "/v1/runs", "{torn", http.StatusBadRequest},
			{"POST", "/v1/sweeps", map[string]any{"programs": []string{"gcc"}}, http.StatusBadRequest},
			{"POST", "/v1/fleet/lease", fleet.LeaseRequest{WorkerID: "nobody"}, http.StatusNotFound},
		} {
			code, body := ws.do(c.method, c.path, c.body)
			if e := sameAs[map[string]string](t, body); code != c.code || e["error"] == "" {
				t.Errorf("%s %s = %d %v, want %d and an error", c.method, c.path, code, e, c.code)
			}
		}
	})
	step("exploration", func(t *testing.T) {
		code, body := ws.do("POST", "/v1/explore", exploreBody())
		ev := sameAs[exploreView](t, body)
		if code != http.StatusAccepted || ev.ID == "" {
			t.Fatalf("explore = %d %+v", code, ev)
		}
		_, body = ws.do("GET", "/v1/explore/"+ev.ID, nil)
		sameAs[exploreView](t, body)
	})
}

// TestSubmissionKindsDoNotCross: a sweep id is not an exploration's, nor
// the reverse. Asked of the other kind's GET, each is a 404 with an error
// body, while the submission is live in the registry and once it has
// retired to done/ and left the registry; so is an id of neither kind.
func TestSubmissionKindsDoNotCross(t *testing.T) {
	ws := newWireServer(t, 1)
	_, body := ws.do("POST", "/v1/sweeps", sweepBody())
	sweep := sameAs[sweepView](t, body).ID
	_, body = ws.do("POST", "/v1/explore", exploreBody())
	explore := sameAs[exploreView](t, body).ID
	notFound := func(state string) {
		t.Helper()
		for _, path := range []string{"/v1/explore/" + sweep, "/v1/sweeps/" + explore, "/v1/explore/nope", "/v1/sweeps/nope"} {
			code, body := ws.do("GET", path, nil)
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || code != http.StatusNotFound || e["error"] == "" {
				t.Errorf("%s: GET %s = %d %.80s, want 404 and an error", state, path, code, body)
			}
		}
	}
	notFound("live")

	startWorker(t, ws.url, "w", nil)
	for _, id := range []string{sweep, explore} {
		waitFor(t, id+" to retire", func() bool {
			ws.srv.mu.Lock()
			defer ws.srv.mu.Unlock()
			return ws.srv.subs[id].evictable
		})
	}
	// The bound is one: a third submission evicts both.
	if code, body := ws.do("POST", "/v1/sweeps", sweepBody()); code != http.StatusAccepted {
		t.Fatalf("third sweep = %d: %s", code, body)
	}
	if ws.registered(sweep) || ws.registered(explore) {
		t.Fatal("the retired submissions were not evicted")
	}
	for _, path := range []string{"/v1/sweeps/" + sweep, "/v1/explore/" + explore} {
		if code, body := ws.do("GET", path, nil); code != http.StatusOK {
			t.Fatalf("GET %s from done/ = %d: %s", path, code, body)
		}
	}
	notFound("retired")
}

// TestAppendStringIsMarshal: the reply writer's string encoder is
// json.Marshal's, on the strings replies carry today (hex ids, statuses,
// the lost-run message) and on the ones they could.
func TestAppendStringIsMarshal(t *testing.T) {
	for _, s := range []string{
		"", strings.Repeat("0a", 32), "sweep-0123456789abcdef", string(statusQueued), lostRunError,
		"<script>&amp;", `quote " and \ backslash`, "tab\t and newline\n", "\u2028\u2029", "\x00\x1f\x7f", "\xff\xfe invalid", "é ü 日本",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("appendString(%q) = %s, want x%s", s, got, want)
		}
	}
}

// TestSweepViewsUnderConcurrentSettles polls one sweep from several
// goroutines while its members settle: every reply must be well formed
// and monotone, and every reply after the sweep is done must be the same
// bytes. Run under -race, it checks that views copied out under the lock
// and rendered after it share nothing mutable with the settles.
func TestSweepViewsUnderConcurrentSettles(t *testing.T) {
	ws := newWireServer(t, 8)
	programs := workload.Names()[:12]
	_, body := ws.do("POST", "/v1/sweeps", map[string]any{
		"configs":  []any{map[string]any{"paper": map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1}}},
		"programs": programs, "insts": testInsts, "warmup": testWarmup,
	})
	id := sameAs[sweepView](t, body).ID
	ws.waitPending(len(programs))
	var worker fleet.RegisterResponse
	_, body = ws.do("POST", "/v1/fleet/workers", fleet.RegisterRequest{Capacity: len(programs)})
	worker = sameAs[fleet.RegisterResponse](t, body)
	var jobs []results.Job
	for len(jobs) < len(programs) {
		_, body = ws.do("POST", "/v1/fleet/lease", fleet.LeaseRequest{WorkerID: worker.WorkerID, Max: 64})
		jobs = append(jobs, sameAs[fleet.LeaseResponse](t, body).Jobs...)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	finals := make([][]byte, 4)
	errs := make(chan error, 4)
	for p := range finals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				resp, err := http.Get(ws.url + "/v1/sweeps/" + id)
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				var sv sweepView
				if err := json.Unmarshal(b, &sv); err != nil {
					errs <- fmt.Errorf("poll: %v: %s", err, b)
					return
				}
				if sv.Done < last {
					errs <- fmt.Errorf("done went %d -> %d", last, sv.Done)
					return
				}
				last = sv.Done
				if sv.Status == statusDone {
					finals[p] = b
					return
				}
				select {
				case <-stop:
					errs <- fmt.Errorf("sweep never finished: %s", b)
					return
				default:
				}
			}
		}()
	}
	for i, j := range jobs {
		cr := fleet.CompleteRequest{WorkerID: worker.WorkerID, ResultBatch: results.ResultBatch{Results: []results.Result{record(j, i, "")}}}
		if code, body := ws.do("POST", "/v1/fleet/complete", cr); code != http.StatusOK {
			t.Fatalf("complete = %d: %s", code, body)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		close(stop)
		<-done
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for p := 1; p < len(finals); p++ {
		if !bytes.Equal(finals[p], finals[0]) {
			t.Errorf("pollers saw different final views:\n%s\n%s", finals[0], finals[p])
		}
	}
}

// benchServer is a dispatch-only coordinator for the reply benchmarks:
// runs settle only when the benchmark settles them.
func benchServer(b *testing.B) *Server {
	srv, err := New(Options{Workers: -1, Fleet: &fleet.CoordinatorOptions{}, QueueDepth: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// benchRecord is a record with every counter set, the size of a real one.
func benchRecord(key string, n int) results.Result {
	res := results.Result{Key: key, Config: "Ring_8clus_1bus_2IW", Program: "gcc", Class: "INT"}
	v := reflect.ValueOf(&res.Stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64, reflect.Uint, reflect.Uint32:
			f.SetUint(uint64(123456789 + n*i))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(987654 + n*i))
		case reflect.Array:
			for k := 0; k < f.Len(); k++ {
				if f.Index(k).CanUint() {
					f.Index(k).SetUint(uint64(4242 + n + k))
				}
			}
		}
	}
	return res
}

// BenchmarkSweepView prices GET /v1/sweeps/{id} on the Figure-6 grid (260
// members): half of them settled, and all of them (the final view).
func BenchmarkSweepView(b *testing.B) {
	srv := benchServer(b)
	h := srv.Handler()
	var cfgs []any
	for _, cfg := range harness.PaperConfigs() {
		cfgs = append(cfgs, map[string]any{"config": cfg})
	}
	body, err := json.Marshal(map[string]any{"configs": cfgs, "programs": workload.Names(), "insts": 300_000, "warmup": 50_000})
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
	var sv sweepView
	if err := json.Unmarshal(rec.Body.Bytes(), &sv); err != nil || sv.Total != 260 {
		b.Fatalf("sweep submit: %v %s", err, rec.Body.Bytes())
	}
	get := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sweeps/"+sv.ID, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("GET = %d", rec.Code)
			}
		}
	}
	settle := func(runs []runView) {
		for i, rv := range runs {
			srv.finish(rv.ID, benchRecord(rv.ID, i), false)
		}
	}
	settle(sv.Runs[:130])
	b.Run("half", get)
	settle(sv.Runs[130:])
	b.Run("done", get)
}

// BenchmarkHotSubmit prices one cached resubmission of POST /v1/runs over
// a real connection: decode, key, registry hit, reply.
func BenchmarkHotSubmit(b *testing.B) {
	srv := benchServer(b)
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	body, err := json.Marshal(map[string]any{"config": core.MustPaperConfig(core.ArchRing, 8, 2, 1), "program": "gcc", "insts": 300_000, "warmup": 50_000})
	if err != nil {
		b.Fatal(err)
	}
	submit := func() runView {
		resp, err := http.Post(hs.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var rv runView
		if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
			b.Fatal(err)
		}
		return rv
	}
	rv := submit()
	srv.finish(rv.ID, benchRecord(rv.ID, 0), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rv := submit(); !rv.Cached {
			b.Fatalf("resubmission not cached: %+v", rv)
		}
	}
}
