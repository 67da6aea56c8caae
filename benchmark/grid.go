package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runGrid is one pass of an in-process grid workload (fig6_grid,
// unique_mixes): the path `ringsim` takes, harness.GridRuns at the CLI's
// automatic lockstep group size, then one durable record per run. A
// traced pass swaps GridRuns for the staged path below.
func runGrid(c *passCtx, reqs []harness.Request) error {
	p := c.p
	p.Insts = requestedInsts(reqs)
	c.ready()

	t0 := time.Now()
	var runs []harness.Run
	var recs []results.Result
	if c.tr == nil {
		runs = harness.GridRuns(reqs, harness.DefaultBatchSize())
		recs = make([]results.Result, len(runs))
		for i, run := range runs {
			rec, err := results.FromRun(reqs[i], run)
			if err != nil {
				return err
			}
			recs[i] = rec
		}
	} else {
		runs, recs = stagedGrid(c.tr, reqs)
	}
	p.PassS = time.Since(t0).Seconds()

	p.Attempted = len(runs)
	for i, run := range runs {
		if run.Err != nil {
			p.fail(1, "%s/%s: %v", reqs[i].Config.Name, run.Workload, run.Err)
		}
	}
	var err error
	if p.Digest, err = digest(recs); err != nil {
		return err
	}

	harnessLayer(p.Layer, streamUses(reqs))
	if c.tr != nil { // the staged path runs members one by one and never forms a lockstep group
		delete(p.Layer, "harness.batch_groups")
		delete(p.Layer, "harness.batch_members")
	}
	simulatedLayer(recs, p.Layer)
	if c.workload == wFig6 {
		fig6Layer(recs, p.Layer)
	}
	resultsLayer(reqs, recs, p.Layer)
	if c.tr != nil {
		stagedLayer(c.tr, p)
	}
	return nil
}

// streamUses is how many times the requests' runs read a stream.
func streamUses(reqs []harness.Request) int {
	n := 0
	for _, r := range reqs {
		n += len(r.Workload.Streams)
	}
	return n
}

// shareRatio is the fraction of the runs' stream reads that needed no new
// materialization — whether the sharing happened through a cache hit or
// inside a lockstep group, which calls the cache once for all members.
func shareRatio(misses float64, uses int) float64 {
	if uses == 0 {
		return 0
	}
	return 1 - misses/float64(uses)
}

// harnessLayer reads the harness's process-wide counters. The child
// process runs one pass, so they are that pass's counts. uses is the
// pass's streamUses.
func harnessLayer(layer map[string]float64, uses int) {
	tc := harness.DefaultTraceCache.Stats()
	layer["harness.trace_cache_hits"] = float64(tc.Hits)
	layer["harness.trace_cache_misses"] = float64(tc.Misses)
	layer["harness.trace_share_ratio"] = shareRatio(float64(tc.Misses), uses)
	layer["harness.trace_cache_mb"] = float64(tc.Bytes) / 1e6
	bs := harness.BatchStatsSnapshot()
	layer["harness.batch_groups"] = float64(bs.Groups)
	layer["harness.batch_members"] = float64(bs.GroupedRuns)
	ss := harness.SampledStatsSnapshot()
	layer["harness.sampled_runs"] = float64(ss.Runs)
	layer["core.ff_insts"] = float64(ss.FFInsts)
	layer["core.detailed_insts"] = float64(ss.DetailedInsts)
}

// Span names of the staged path.
const (
	spExecute = "harness.execute"
	spParse   = "workload.parse"
	spMiss    = "harness.stream_miss"
	spHit     = "harness.stream_hit"
	spMachine = "core.machine_setup"
	spWarmup  = "core.warmup"
	spSim     = "core.simulate"
	spRecord  = "results.from_run"
)

// stagedGrid executes the requests through the same exported functions
// harness.Execute calls, in the same order, with one span around each:
// spec parse/validate/class, TraceCache.Stream per stream, machine
// New/Reset, warm-up + ResetStats, Run, results.FromRun. Requests sharing
// a workload go to one worker in order — the way GridRuns hands out
// groups — so the first Stream call for a (program, seed) is the one that
// materializes it. Each worker recycles its own machine, standing in for
// the harness's pool. The repository pins sequential ≡ lockstep results,
// and the caller checks the records against the untraced pass anyway.
func stagedGrid(tr *tracer, reqs []harness.Request) ([]harness.Run, []results.Result) {
	var groups [][]int
	byName := make(map[string]int)
	for i, r := range reqs {
		name := r.Workload.Name()
		gi, ok := byName[name]
		if !ok {
			gi = len(groups)
			byName[name] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	runs := make([]harness.Run, len(reqs))
	recs := make([]results.Result, len(reqs))
	seen := make(map[string]bool) // streams already materialized, by "program@seed"
	var seenMu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m *core.Machine
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(groups) {
					return
				}
				for _, ri := range groups[gi] {
					runs[ri], recs[ri], m = stagedExecute(tr, reqs[ri], m, seen, &seenMu)
				}
			}
		}()
	}
	wg.Wait()
	return runs, recs
}

// stagedExecute is harness.Execute for one exact request, span by span.
// It returns the machine for the worker to reuse.
func stagedExecute(tr *tracer, req harness.Request, m *core.Machine, seen map[string]bool, seenMu *sync.Mutex) (harness.Run, results.Result, *core.Machine) {
	out := harness.Run{Config: req.Config}
	key, _ := results.NewRequest(req).Key() // checked at set-up; here it only labels the spans
	root := tr.start(spExecute, key, 0)
	finish := func(err error) (harness.Run, results.Result, *core.Machine) {
		out.Err = err
		id := tr.start(spRecord, key, root)
		rec, rerr := results.FromRun(req, out)
		tr.end(id)
		if rerr != nil && out.Err == nil {
			out.Err = rerr
		}
		tr.end(root)
		return out, rec, m
	}

	id := tr.start(spParse, key, root)
	spec, err := workload.ParseSpec(req.Workload.Name())
	if err == nil {
		err = spec.Validate()
	}
	if err == nil {
		out.Class, err = spec.Class()
	}
	tr.end(id)
	out.Workload = spec.Name()
	if err != nil {
		return finish(err)
	}

	budgets := harness.StreamBudgets(spec, req.Insts, req.Warmup)
	streams := make([]trace.Stream, len(spec.Streams))
	for i, s := range spec.Streams {
		label := fmt.Sprintf("%s@%d", s.Program, s.Seed)
		seenMu.Lock()
		name := spHit
		if !seen[label] {
			seen[label], name = true, spMiss
		}
		seenMu.Unlock()
		id := tr.start(name, label, root)
		streams[i], err = harness.DefaultTraceCache.Stream(s.Program, s.Seed, budgets[i])
		tr.end(id)
		if err != nil {
			return finish(err)
		}
	}

	id = tr.start(spMachine, key, root)
	if m != nil {
		err = m.ResetMulti(req.Config, streams)
	} else {
		m, err = core.NewMulti(req.Config, streams)
	}
	tr.end(id)
	if err != nil {
		return finish(err)
	}

	if req.Warmup > 0 {
		id = tr.start(spWarmup, key, root)
		err = m.RunCommitted(req.Warmup)
		m.ResetStats()
		tr.end(id)
		if err != nil {
			return finish(err)
		}
	}
	id = tr.start(spSim, key, root)
	out.Stats, err = m.Run(0)
	tr.end(id)
	return finish(err)
}

// stagedLayer turns the staged path's spans into per-layer metrics.
func stagedLayer(tr *tracer, p *pass) {
	t := totals(tr.spans)
	l := p.Layer
	l["workload.parse_s"] = t.dur[spParse]
	l["harness.trace_materialize_s"] = t.dur[spMiss]
	l["harness.execute_self_s"] = t.self[spExecute] + t.dur[spHit]
	l["core.machine_setup_s"] = t.dur[spMachine]
	l["core.warmup_s"] = t.dur[spWarmup]
	l["core.simulate_s"] = t.dur[spSim]
	coreS := t.dur[spMachine] + t.dur[spWarmup] + t.dur[spSim]
	if p.Insts > 0 {
		l["core.host_ns_per_inst"] = (t.dur[spWarmup] + t.dur[spSim]) * 1e9 / float64(p.Insts)
	}
	if ex := t.dur[spExecute]; ex > 0 {
		l["core.blocking_share_pct"] = 100 * coreS / ex
		l["proc.span_coverage_pct"] = 100 * ex / (p.PassS * float64(runtime.GOMAXPROCS(0)))
	}
	// Generation cost per instruction, split by generator: a miss span's
	// Req is "program@seed" and its length is the stream's budget, which
	// the cache reports in total.
	var fixedS, synthS float64
	var fixedN, synthN int
	for _, s := range tr.spans {
		if s.Name != spMiss {
			continue
		}
		d := float64(s.EndNS-s.StartNS) / 1e9
		if strings.HasPrefix(s.Req, "synth") {
			synthS, synthN = synthS+d, synthN+1
		} else {
			fixedS, fixedN = fixedS+d, fixedN+1
		}
	}
	if n := fixedN + synthN; n > 0 {
		perStream := float64(harness.DefaultTraceCache.Stats().Insts) / float64(n)
		if fixedN > 0 {
			l["workload.gen_ns_per_inst"] = fixedS * 1e9 / (perStream * float64(fixedN))
		}
		if synthN > 0 {
			l["synth.gen_ns_per_inst"] = synthS * 1e9 / (perStream * float64(synthN))
		}
	}
}
