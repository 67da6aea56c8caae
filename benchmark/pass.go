package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// pass is what one child process reports for one pass of a workload. A
// fresh process per pass keeps the harness's process-wide caches
// (DefaultTraceCache, the machine pool, DefaultProfileCache) cold and
// makes ru_maxrss the pass's own.
type pass struct {
	Traced bool `json:"traced"`
	// SetupS runs from the moment the parent spawned the child to the
	// first timed operation: process start, input expansion, content
	// keys, temp dirs, and for service_sweep the daemon's start to its
	// first healthy reply.
	SetupS float64 `json:"setup_s"`
	// PassS is everything after set-up the user waits for, and Insts the
	// simulated instructions it covered. CPUS is the CPU time (user +
	// system) of the processes that did it: this child and, on
	// service_sweep, both daemon incarnations.
	PassS     float64 `json:"pass_s"`
	Insts     uint64  `json:"insts"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Attempted and Failed count operations: runs, HTTP requests,
	// candidate evaluations.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"` // why operations failed
	// Digest is the SHA-256 over the pass's result records.
	Digest string `json:"digest"`
	// Frontier is the exploration's final Pareto set.
	Frontier []frontierPoint    `json:"frontier,omitempty"`
	Layer    map[string]float64 `json:"layer"`
}

// frontierPoint is one Pareto-optimal configuration and its objectives.
type frontierPoint struct {
	Config string  `json:"config"`
	IPC    float64 `json:"ipc"`
	Area   float64 `json:"area"`
}

// fail counts n failed operations and keeps the first few reasons.
func (p *pass) fail(n int, format string, args ...any) {
	p.Failed += n
	if len(p.Notes) < 8 {
		p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
	}
}

// passCtx is a child's view of the pass it runs.
type passCtx struct {
	workload string
	seed     uint64
	sz       sizes
	dir      string // scratch directory of this pass, removed by the parent
	outDir   string // where the span file goes
	daemon   string // path of the built ringsimd
	spawned  time.Time
	tr       *tracer // nil on an untraced pass
	p        *pass
}

// ready marks the end of set-up.
func (c *passCtx) ready() { c.p.SetupS = time.Since(c.spawned).Seconds() }

// runPass is the child's main: run one pass, print it as JSON.
func runPass(c *passCtx) error {
	c.p = &pass{Traced: c.tr != nil, Layer: make(map[string]float64)}
	var err error
	switch c.workload {
	case wFig6:
		reqs, e := fig6Requests(c.seed, c.sz)
		if e != nil {
			return e
		}
		err = runGrid(c, reqs)
	case wMixes:
		reqs, e := mixRequests(c.seed, c.sz)
		if e != nil {
			return e
		}
		err = runGrid(c, reqs)
	case wService:
		err = runService(c)
	case wExplore:
		err = runExplore(c)
	default:
		err = fmt.Errorf("unknown workload %q", c.workload)
	}
	if err != nil {
		return err
	}
	if c.tr != nil {
		if err := c.tr.write(filepath.Join(c.outDir, c.workload+".trace.json")); err != nil {
			return err
		}
	}
	procLayer(c.p)
	return json.NewEncoder(os.Stdout).Encode(c.p)
}

// procLayer reports the child's own resource use. service_sweep has
// already set PeakRSSMB to the daemon's, which is the process that holds
// the simulator there.
func procLayer(p *pass) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.Layer["proc.cpu_user_s"] = time.Duration(ru.Utime.Nano()).Seconds()
		p.Layer["proc.cpu_sys_s"] = time.Duration(ru.Stime.Nano()).Seconds()
		p.CPUS += p.Layer["proc.cpu_user_s"] + p.Layer["proc.cpu_sys_s"]
		if p.PeakRSSMB == 0 {
			p.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	p.Layer["proc.pass_s"] = p.PassS
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	p.Layer["proc.gc_pause_ms"] = float64(gc.PauseTotal.Microseconds()) / 1e3
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Layer["proc.heap_alloc_mb"] = float64(ms.TotalAlloc) / 1e6
}
