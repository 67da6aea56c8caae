package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/results"
	"repro/internal/server"
)

// Daemon settings of service_sweep: what `ringsimd -workers 2 -queue 256
// -cache-dir DIR` builds, with the journal under DIR/journal.
const (
	daemonWorkers = 2
	daemonQueue   = 256
	memEntries    = 4096 // ringsimd's -mem-entries default
	hotClients    = 2    // closed loop: each connection sends its next request after the reply
	pollEvery     = 10 * time.Millisecond
	sweepTimeout  = 2 * time.Minute // a sweep takes seconds; past this the pass fails instead of hanging
)

// Span names of the service path.
const (
	spSubmit = "server.sweep_submit"
	spPoll   = "server.poll"
	spHot    = "server.hot_submit"
)

// daemon is a running service, either the real ringsimd process or, on a
// traced pass, server.New in this process behind httptest.
type daemon struct {
	url string
	// stop drains the service the way SIGTERM does, waits for it to end,
	// and reports the process's CPU seconds and peak RSS (zero
	// in-process). A second call does nothing.
	stop func() (cpuS, rssMB float64, err error)
}

// startProcess execs the built ringsimd on a free loopback port and
// waits for /healthz.
func startProcess(bin, cacheDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(daemonWorkers),
		"-queue", strconv.Itoa(daemonQueue), "-cache-dir", cacheDir)
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(cacheDir), "ringsimd.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + addr}
	d.stop = func() (float64, float64, error) {
		if cmd.ProcessState != nil {
			return 0, 0, nil // already stopped and reported
		}
		_ = cmd.Process.Signal(syscall.SIGTERM) // an already-dead daemon shows up in Wait
		err := cmd.Wait()
		st := cmd.ProcessState
		ru, _ := st.SysUsage().(*syscall.Rusage)
		var rss float64
		if ru != nil {
			rss = float64(ru.Maxrss) / 1024
		}
		return (st.UserTime() + st.SystemTime()).Seconds(), rss, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			_, _, _ = d.stop()
			return nil, fmt.Errorf("ringsimd on %s never became healthy: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// startInProcess builds the same service from the options cmd/ringsimd
// would, with the store wrapped so its calls are spanned and counted.
func startInProcess(cacheDir string, store *recStore) (*daemon, error) {
	if err := harness.DefaultProfileCache.SetDir(filepath.Join(cacheDir, "profiles")); err != nil {
		return nil, err
	}
	jnl, err := journal.Open(filepath.Join(cacheDir, "journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Workers: daemonWorkers, QueueDepth: daemonQueue, Store: store, Journal: jnl})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	stopped := false
	return &daemon{url: ts.URL, stop: func() (float64, float64, error) {
		if stopped {
			return 0, 0, nil
		}
		stopped = true
		ts.Close()
		srv.Close()
		return 0, 0, jnl.Close()
	}}, nil
}

// tieredStore is ringsimd's -cache-dir store: a memory LRU over disk.
func tieredStore(cacheDir string) (results.Store, error) {
	disk, err := results.NewDisk(cacheDir)
	if err != nil {
		return nil, err
	}
	return results.NewTiered(results.NewMemoryLRU(memEntries), disk), nil
}

// Wire shapes of the HTTP API, decoding only what the client checks.
type runView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result *results.Result `json:"result"`
}

type sweepView struct {
	ID      string           `json:"id"`
	Status  string           `json:"status"`
	Total   int              `json:"total"`
	Results []results.Result `json:"results"`
}

// client is one keep-alive connection to the service.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// do sends one request and decodes a 2xx JSON reply into v.
func (cl *client) do(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads /metrics into name → value, dropping labels (a labelled
// family's series are summed, which is what the per-worker histograms'
// _sum and _count need).
func (cl *client) scrape() (map[string]float64, error) {
	resp, err := cl.hc.Get(cl.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, val = name[:i], line[strings.LastIndexByte(line, ' ')+1:]
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] += f
		}
	}
	return out, sc.Err()
}

// sweep submits the sweep and polls until it is terminal, counting one
// operation per member; a sweep that does not come back done, complete
// and byte-identical to want fails all its members.
func sweep(c *passCtx, cl *client, body []byte, members int, want string) (submit time.Duration, polls []float64, got string) {
	p := c.p
	p.Attempted += members
	var sv sweepView
	t0 := time.Now()
	id := c.tr.start(spSubmit, "sweep", 0)
	err := cl.do(http.MethodPost, "/v1/sweeps", body, &sv)
	c.tr.end(id)
	submit = time.Since(t0)
	for err == nil && (sv.Status == "queued" || sv.Status == "running") {
		if time.Since(t0) > sweepTimeout {
			err = fmt.Errorf("still %s after %s", sv.Status, sweepTimeout)
			break
		}
		time.Sleep(pollEvery)
		t1 := time.Now()
		id := c.tr.start(spPoll, sv.ID, 0)
		err = cl.do(http.MethodGet, "/v1/sweeps/"+sv.ID, nil, &sv)
		c.tr.end(id)
		polls = append(polls, time.Since(t1).Seconds()*1e3)
	}
	switch {
	case err != nil:
		p.fail(members, "sweep: %v", err)
	case sv.Status != "done" || len(sv.Results) != members:
		p.fail(members, "sweep %s ended %s with %d/%d results", sv.ID, sv.Status, len(sv.Results), members)
	default:
		if got, err = digest(sv.Results); err != nil {
			p.fail(members, "sweep digest: %v", err)
		} else if want != "" && got != want {
			p.fail(members, "sweep records differ from the cold sweep's")
		}
	}
	return submit, polls, got
}

// runService is one pass of service_sweep: the Figure-6 grid through a
// real daemon, cold, after a restart, and hot.
func runService(c *passCtx) error {
	p, l := c.p, c.p.Layer
	reqs, err := fig6Requests(c.seed, c.sz)
	if err != nil {
		return err
	}
	p.Insts = requestedInsts(reqs)
	members := len(reqs)
	// Request bodies are built before the clock starts: a sweep naming
	// full configurations, and one /v1/runs body per member.
	type wireConfig struct {
		Config core.Config `json:"config"`
	}
	var cfgs []wireConfig
	for _, cfg := range harness.PaperConfigs() {
		cfgs = append(cfgs, wireConfig{cfg})
	}
	sweepBody, err := json.Marshal(map[string]any{
		"configs": cfgs, "programs": suitePrograms(c.seed),
		"insts": c.sz.gridInsts, "warmup": c.sz.gridWarm,
	})
	if err != nil {
		return err
	}
	keys := make([]string, members)
	runBodies := make([][]byte, members)
	for i, r := range reqs {
		if keys[i], err = results.NewRequest(r).Key(); err != nil {
			return err
		}
		runBodies[i], err = json.Marshal(map[string]any{
			"config": r.Config, "program": r.Workload.Name(), "insts": r.Insts, "warmup": r.Warmup,
		})
		if err != nil {
			return err
		}
	}
	cacheDir := filepath.Join(c.dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	// One counting store for the whole traced pass; each (re)start gives
	// it a fresh memory tier, as a new process would have.
	store := newRecStore(nil, c.tr)
	start := func() (*daemon, error) { return startProcess(c.daemon, cacheDir) }
	if c.tr != nil {
		start = func() (*daemon, error) {
			var err error
			if store.inner, err = tieredStore(cacheDir); err != nil {
				return nil, err
			}
			return startInProcess(cacheDir, store)
		}
	}
	d, err := start()
	if err != nil {
		return err
	}
	// Whatever goes wrong below, no daemon outlives the pass.
	defer func() { _, _, _ = d.stop() }()
	cl := newClient(d.url)
	c.ready()

	// Cold: every member simulates; the store and the journal are written.
	t0 := time.Now()
	submit, polls, cold := sweep(c, cl, sweepBody, members, "")
	l["server.cold_sweep_s"] = time.Since(t0).Seconds()
	l["server.sweep_submit_ms"] = submit.Seconds() * 1e3
	l["server.poll_p50_ms"] = median(polls)
	l["server.polls"] = float64(len(polls))
	coldM, err := cl.scrape()
	if err != nil {
		return err
	}
	l["server.runs_started"] = coldM["ringsimd_runs_started_total"]
	if n := coldM["ringsimd_queue_age_seconds_count"]; n > 0 {
		l["server.queue_age_mean_ms"] = 1e3 * coldM["ringsimd_queue_age_seconds_sum"] / n
	}
	if n := coldM["ringsimd_worker_complete_seconds_count"]; n > 0 {
		l["server.worker_complete_mean_ms"] = 1e3 * coldM["ringsimd_worker_complete_seconds_sum"] / n
	}
	l["harness.trace_cache_hits"] = coldM["ringsimd_trace_cache_hits_total"]
	l["harness.trace_cache_misses"] = coldM["ringsimd_trace_cache_misses_total"]
	l["harness.trace_share_ratio"] = shareRatio(l["harness.trace_cache_misses"], streamUses(reqs))
	l["harness.trace_cache_mb"] = coldM["ringsimd_trace_cache_bytes"] / 1e6
	l["harness.batch_groups"] = coldM["ringsimd_batch_groups_total"]
	l["harness.batch_members"] = coldM["ringsimd_batch_runs_total"]
	l["journal.entries"] = coldM["ringsimd_journal_entries_total"]
	l["journal.checkpoints"] = coldM["ringsimd_journal_checkpoints_total"]
	p.Digest = cold

	// Restart: same directories, new process; the resubmitted sweep must
	// be answered from the journal's replay and the disk store alone.
	cpu1, rss1, err := d.stop()
	if err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	t1 := time.Now()
	restarted, err := start()
	if err != nil {
		return err
	}
	d = restarted
	cl = newClient(d.url)
	l["server.restart_ready_s"] = time.Since(t1).Seconds()
	sweep(c, cl, sweepBody, members, cold)
	l["server.restart_sweep_s"] = time.Since(t1).Seconds()
	restartM, err := cl.scrape()
	if err != nil {
		return err
	}
	l["server.restart_runs_started"] = restartM["ringsimd_runs_started_total"]
	l["journal.replayed"] = restartM["ringsimd_journal_replayed_total"]

	// Hot: identical single-run resubmissions, answered from memory.
	lat, hotRecs, hotWall := hotPhase(c, d.url, runBodies, keys)
	p.PassS = time.Since(t0).Seconds()
	if len(hotRecs) == members {
		if hot, err := digest(hotRecs); err != nil || hot != cold {
			p.fail(len(lat), "hot replies differ from the cold sweep's records (%v)", err)
		}
	} else {
		p.fail(len(lat), "hot phase saw %d of %d members", len(hotRecs), members)
	}
	t := pickTail(lat)
	l["server.hot_samples"] = float64(t.N)
	l["server.hot_submit_p50_ms"] = t.P50
	l["server.hot_submit_tail_ms"] = t.High
	l["server.hot_submit_tail_pct"] = t.HighPct
	l["server.hot_submit_max_ms"] = t.Max
	if hotWall > 0 {
		l["server.hot_submits_per_s"] = float64(len(lat)) / hotWall
	}
	hotM, err := cl.scrape()
	if err != nil {
		return err
	}
	l["server.cache_hits"] = hotM["ringsimd_cache_hits_total"]

	cpu2, rss2, err := d.stop()
	if err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	if c.tr == nil {
		l["server.daemon_cpu_s"] = cpu1 + cpu2
		p.CPUS = cpu1 + cpu2
		p.PeakRSSMB = max(rss1, rss2)
	}
	if l["results.disk_mb"], err = dirMB(cacheDir); err != nil {
		return err
	}
	simulatedLayer(hotRecs, l)
	fig6Layer(hotRecs, l)
	resultsLayer(reqs, hotRecs, l)
	if err := journalLayer(filepath.Join(c.dir, "journal-probe"), reqs, keys, l); err != nil {
		return err
	}
	if c.tr != nil {
		store.storeLayer(l)
		t := totals(c.tr.spans)
		l["proc.span_coverage_pct"] = 100 * (t.dur[spSubmit] + t.dur[spPoll] + t.dur[spHot]/hotClients) / p.PassS
	}
	return nil
}

// hotPhase resubmits members over hotClients keep-alive connections in
// the seed's shuffled order and returns the per-request latencies (ms)
// after the discarded warm-up, the last record seen per member, and the
// wall time of the measured part.
func hotPhase(c *passCtx, url string, bodies [][]byte, keys []string) (lat []float64, recs []results.Result, wall float64) {
	order := hotOrder(c.seed, len(bodies), c.sz.hotSubmits)
	c.p.Attempted += len(order)
	type sample struct{ start, end time.Time }
	samples := make([][]sample, hotClients)
	last := make(map[string]results.Result, len(bodies))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < hotClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := newClient(url)
			for i := w; i < len(order); i += hotClients {
				m := order[i]
				var rv runView
				t0 := time.Now()
				id := c.tr.start(spHot, keys[m], 0)
				err := cl.do(http.MethodPost, "/v1/runs", bodies[m], &rv)
				c.tr.end(id)
				samples[w] = append(samples[w], sample{t0, time.Now()})
				mu.Lock()
				switch {
				case err != nil:
					c.p.fail(1, "hot submit: %v", err)
				case rv.Status != "done" || rv.Result == nil || rv.ID != keys[m]:
					c.p.fail(1, "hot submit %s: status %q", keys[m], rv.Status)
				default:
					last[rv.ID] = *rv.Result
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// Drop each connection's share of the warm-up; the measured part runs
	// from the first kept request's send to the last reply.
	skip := c.sz.hotDiscard / hotClients
	var first, end time.Time
	for _, s := range samples {
		for _, x := range s[min(skip, len(s)):] {
			lat = append(lat, x.end.Sub(x.start).Seconds()*1e3)
			if first.IsZero() || x.start.Before(first) {
				first = x.start
			}
			if x.end.After(end) {
				end = x.end
			}
		}
	}
	for _, r := range last {
		recs = append(recs, r)
	}
	return lat, recs, end.Sub(first).Seconds()
}

// journalLayer prices one journal append by replaying the pass's enqueue
// and complete records through a scratch journal with the daemon's
// options (fsync on), a bounded number so the probe stays short.
func journalLayer(dir string, reqs []harness.Request, keys []string, layer map[string]float64) error {
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	n := min(len(reqs), 32)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		job := results.Job{Key: keys[i], Request: results.NewRequest(reqs[i])}
		if err := j.Append(journal.Record{Op: journal.OpEnqueue, Key: keys[i], Job: &job}); err != nil {
			return err
		}
		if err := j.Append(journal.Record{Op: journal.OpComplete, Key: keys[i]}); err != nil {
			return err
		}
	}
	layer["journal.append_us_per_op"] = float64(time.Since(t0).Microseconds()) / float64(2*n)
	return j.Close()
}

// dirMB is the size of the regular files under dir.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return float64(n) / 1e6, err
}
