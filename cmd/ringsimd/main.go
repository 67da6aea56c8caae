// Command ringsimd serves the ring-cluster simulator over HTTP: a
// bounded job queue, a worker pool of simulations, and a
// content-addressed result cache so no (config, program, insts, warmup)
// tuple is ever simulated twice. Besides single runs and grid sweeps it
// serves design-space explorations (POST /v1/explore): Pareto searches
// over IPC × area whose candidate evaluations ride the same queue,
// workers, and cache.
//
// Usage:
//
//	ringsimd [-addr :8080] [-workers N] [-queue N]
//	         [-cache-dir DIR] [-cache-max-bytes N]
//	         [-journal-dir DIR] [-pprof-addr HOST:PORT]
//	         [-fleet] [-fleet-secret S] [-lease-ttl 30s]
//
// Fidelity and the analytical twin are chosen per request. A run, sweep
// or exploration with "fidelity": "sampled" runs interval sampling: short
// detailed windows alternate with functional fast-forward and results
// carry confidence intervals (docs/performance.md); explorations run
// their search tier sampled and re-score the final frontier exactly.
// Sampled results key distinctly in the cache, so the two fidelities
// never contaminate each other. An exploration with "twin": "on" (or
// "auto") is gated by the closed-form model of internal/predict: it
// scores the whole space and only the predicted Pareto frontier plus its
// ε-neighborhood is simulated, with predicted-vs-simulated MAPE reported
// in the exploration JSON and the ringsimd_twin_* /metrics family. A
// request that names neither runs exact and ungated.
//
// With -cache-dir the cache is tiered: a 4096-entry in-memory LRU in
// front of an on-disk content-addressed store that survives restarts
// (results.OpenDir, shared with ringsim-worker and ringsim's -cache-dir).
// Without it, results live only in a 4096-entry LRU. -cache-max-bytes
// bounds the disk store: past the bound, least-recently-used entries are
// pruned (safe — every entry is re-simulatable).
//
// With -journal-dir the coordinator's control state is crash-safe: the
// pool mutations of direct runs (enqueue, complete, poison) are
// journaled, and sweep/exploration manifests are persisted under their
// durable ids; a manifest lists its members, so they are not journaled.
// After a crash (kill -9 included) a restart replays the journal, settles
// jobs whose results already sit in the store, re-queues the rest, and
// serves `GET /v1/sweeps/{id}` / `GET /v1/explore/{id}` for ids handed
// out by the dead process. Defaults to <cache-dir>/journal when
// -cache-dir is set; "none" disables journaling even then. Journaling
// without any disk store works but recovers by re-simulating, since
// results die with the process.
//
// With -fleet the daemon coordinates remote ringsim-worker processes
// (see cmd/ringsim-worker): all queued work is sharded across registered
// workers under -lease-ttl leases, with the local -workers pool as
// fallback. Workers heartbeat every third of the TTL, and one silent
// for two TTLs is dropped and its leases requeued. -workers -1 makes it a dispatch-only coordinator that never
// simulates locally. A fleet with zero registered workers behaves
// exactly like a plain daemon. With -fleet-secret every /v1/fleet call
// must carry the matching X-Fleet-Secret header (worker flag of the
// same name) or it is refused with 401.
//
// With -pprof-addr (off by default) a second HTTP listener serves
// net/http/pprof on that address, so service-side hot spots can be
// profiled in place: `go tool pprof http://HOST:PORT/debug/pprof/profile`.
// Bind it to localhost; the profiling surface is unauthenticated.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/results"
	"repro/internal/server"
	"repro/internal/version"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "local simulation worker-pool size (-1 with -fleet = dispatch-only, no local simulations)")
	queue := flag.Int("queue", 256, "job queue depth (single runs beyond it get 503; sweeps of any size trickle through)")
	cacheDir := flag.String("cache-dir", "", "on-disk result cache directory (empty = memory only)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "size bound for -cache-dir; least-recently-used entries are pruned past it (0 = unbounded)")
	journalDir := flag.String("journal-dir", "", "coordinator journal directory for crash-safe sweeps/explorations (default <cache-dir>/journal when -cache-dir is set; \"none\" disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	fleetMode := flag.Bool("fleet", false, "coordinate remote ringsim-worker processes via /v1/fleet")
	fleetSecret := flag.String("fleet-secret", "", "shared secret required on every /v1/fleet call (empty = unauthenticated)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "fleet: how long a worker holds a leased job without heartbeating before it is requeued (workers heartbeat every lease-ttl/3)")
	showVersion := flag.Bool("version", false, "print the build revision and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Revision())
		return
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	store, err := results.OpenDir(*cacheDir, *cacheMaxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringsimd:", err)
		os.Exit(2)
	}
	opts := server.Options{Workers: *workers, QueueDepth: *queue, Store: store, FleetSecret: *fleetSecret}
	if *fleetMode {
		opts.Fleet = &fleet.CoordinatorOptions{LeaseTTL: *leaseTTL}
	} else if *workers < 0 {
		fmt.Fprintln(os.Stderr, "ringsimd: -workers -1 (dispatch-only) requires -fleet")
		os.Exit(2)
	}
	jdir := *journalDir
	if jdir == "" && *cacheDir != "" {
		jdir = filepath.Join(*cacheDir, "journal")
	}
	var jnl *journal.Journal
	if jdir != "" && jdir != "none" {
		jnl, err = journal.Open(jdir, journal.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ringsimd:", err)
			os.Exit(2)
		}
		opts.Journal = jnl
	}
	srv, err := server.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringsimd:", err)
		os.Exit(2)
	}
	if jnl != nil {
		rec := jnl.ReplayState()
		msg := fmt.Sprintf("ringsimd: journal %s replayed %d entries: %d jobs re-queued/settled, %d sweeps/explorations re-attached",
			jdir, rec.Entries, len(rec.Jobs), len(rec.OpenManifests))
		if rec.Torn {
			msg += " (discarded a torn final record)"
		}
		log.Print(msg)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	mode := "single-process"
	if *fleetMode {
		mode = fmt.Sprintf("fleet coordinator (lease TTL %s)", *leaseTTL)
	}
	cache := "memory only"
	if *cacheDir != "" {
		cache = *cacheDir
	}
	durability := "journal off"
	if jnl != nil {
		durability = "journal " + jdir
	}
	log.Printf("ringsimd: listening on %s (%d local workers, queue %d, cache %s, %s, %s)",
		*addr, srv.Workers(), *queue, cache, mode, durability)
	select {
	case <-ctx.Done():
		// Drain gracefully: stop the listener, then let queued and
		// in-flight simulations finish so their results reach the cache.
		log.Printf("ringsimd: shutting down, draining in-flight simulations")
		_ = hs.Shutdown(context.Background())
		srv.Close()
		closeJournal(jnl)
	case err := <-errc:
		srv.Close()
		closeJournal(jnl)
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("ringsimd: ", err)
		}
	}
}

// closeJournal compacts and closes the coordinator journal after the
// server has drained (the server never closes it itself).
func closeJournal(j *journal.Journal) {
	if j == nil {
		return
	}
	if err := j.Close(); err != nil {
		log.Printf("ringsimd: journal close: %v", err)
	}
}

// servePprof exposes the runtime profiling endpoints on their own
// listener (never the API mux, so the main port stays clean). Registered
// explicitly rather than via the net/http/pprof side-effect import so
// nothing leaks onto http.DefaultServeMux.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("ringsimd: pprof listening on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("ringsimd: pprof listener failed: %v", err)
	}
}
