// Command ringsim-worker is a fleet execution node: it registers with a
// ringsimd coordinator started with -fleet, pulls leased batches of
// simulation requests, executes them through the same harness the
// coordinator would use locally (shared trace cache, pooled machines),
// and streams the result records back. Every payload is
// content-addressed, so a worker can die, restart, or double-complete
// without ever corrupting a result.
//
// Usage:
//
//	ringsim-worker -coordinator http://host:8080
//	               [-fleet-secret S] [-name NODE] [-capacity N]
//	               [-poll 500ms] [-cache-dir DIR] [-cache-max-bytes N]
//
// With -cache-dir the worker fronts its own content-addressed disk
// cache, opened as ringsimd opens its own (results.OpenDir): a leased
// key already present locally is completed without simulating, so
// restarted workers and workers sharing a cache volume never redo work.
// The coordinator additionally never leases out keys its own store
// already holds, so the worker cache only pays off for results the
// coordinator has lost (fresh coordinator, old workers).
//
// The worker runs until SIGINT/SIGTERM, finishing and returning its
// in-flight batch before exiting; anything it holds beyond that is
// recovered by the coordinator's lease timeout. It also exits when the
// coordinator answers that it has stopped for good (410 Gone).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/results"
	"repro/internal/version"
)

func main() {
	coordinator := flag.String("coordinator", "http://localhost:8080", "base URL of the ringsimd -fleet coordinator")
	name := flag.String("name", hostname(), "worker label shown in the coordinator's /v1/fleet status")
	capacity := flag.Int("capacity", runtime.GOMAXPROCS(0), "concurrent simulations")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle wait between empty lease attempts")
	cacheDir := flag.String("cache-dir", "", "worker-local on-disk result cache directory (empty = no local cache)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "size bound for -cache-dir; least-recently-used entries are pruned past it (0 = unbounded)")
	fleetSecret := flag.String("fleet-secret", "", "shared secret matching the coordinator's -fleet-secret")
	showVersion := flag.Bool("version", false, "print the build revision and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Revision())
		return
	}

	store, err := results.OpenDir(*cacheDir, *cacheMaxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringsim-worker:", err)
		os.Exit(2)
	}
	if store != nil {
		log.Printf("ringsim-worker: local cache at %s", *cacheDir)
	}

	w := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator:  *coordinator,
		Secret:       *fleetSecret,
		Name:         *name,
		Capacity:     *capacity,
		Store:        store,
		PollInterval: *poll,
		Logf:         log.Printf,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil {
		log.Fatal("ringsim-worker: ", err)
	}
	st := w.Stats()
	log.Printf("ringsim-worker: draining: leased %d, executed %d, cache hits %d, completed %d, rejected %d, store put errors %d",
		st.Leased, st.Executed, st.CacheHits, st.Completed, st.Rejected, st.StorePutErrors)
}

// hostname is the default worker label.
func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "ringsim-worker"
	}
	return h
}
