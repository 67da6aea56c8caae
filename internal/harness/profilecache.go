package harness

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/predict"
	"repro/internal/workload"
)

// ProfileCache memoizes analytical-twin trace summaries (predict.Profile)
// the way TraceCache memoizes materialized traces: one profile per
// (canonical program, seed, instruction count), computed once and shared
// by every exploration that scores the same workload. A cached profile is
// a detached predict.Profile of about 1.3 KB, three orders of magnitude
// smaller than the trace it summarizes and nothing of the summarizer that
// built it, so the memory layer is unbounded; with a directory attached
// each profile is also persisted content-addressed (predict.Key → JSON),
// which makes the cache durable across restarts and shareable fleet-wide
// through the same shared cache directory that backs the result store.
//
// The cache is safe for concurrent use. A profile reads its stream once,
// from a private generator, so profiling never touches the TraceCache:
// it neither materializes a trace the simulations may never ask for nor
// keeps one resident.
type ProfileCache struct {
	mu       sync.Mutex
	dir      string
	entries  map[string]*predict.Profile
	inFlight map[string]*sync.WaitGroup
	hits     uint64
	misses   uint64
	diskHits uint64
}

// NewProfileCache returns a cache persisting to dir when non-empty.
func NewProfileCache(dir string) *ProfileCache {
	return &ProfileCache{
		dir:      dir,
		entries:  make(map[string]*predict.Profile),
		inFlight: make(map[string]*sync.WaitGroup),
	}
}

// DefaultProfileCache backs the twin evaluator, memory-only until a
// directory is attached at process startup.
var DefaultProfileCache = NewProfileCache("")

// SetDir attaches (or detaches, with "") the content-addressed disk
// layer. Call at startup before concurrent use; profiles computed earlier
// stay in memory but are not re-persisted.
func (pc *ProfileCache) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	pc.mu.Lock()
	pc.dir = dir
	pc.mu.Unlock()
	return nil
}

// ProfileCacheStats is a point-in-time snapshot of the cache counters for
// /metrics.
type ProfileCacheStats struct {
	// Entries is the number of profiles resident in memory.
	Entries int
	// Hits counts Profile calls served from memory, DiskHits those
	// loaded from the directory, Misses those that computed a profile.
	Hits, DiskHits, Misses uint64
}

// Stats returns a snapshot of the cache counters.
func (pc *ProfileCache) Stats() ProfileCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return ProfileCacheStats{
		Entries:  len(pc.entries),
		Hits:     pc.hits,
		DiskHits: pc.diskHits,
		Misses:   pc.misses,
	}
}

// Profile returns the summary of the first n instructions of (program,
// seed), computing and caching it on first use. Concurrent requests for
// one key compute once; the rest wait.
func (pc *ProfileCache) Profile(program string, seed, n uint64) (*predict.Profile, error) {
	if n == 0 {
		return nil, fmt.Errorf("harness: profile of %q needs a positive instruction count", program)
	}
	key := predict.Key(program, seed, n)
	for {
		pc.mu.Lock()
		if p := pc.entries[key]; p != nil {
			pc.hits++
			pc.mu.Unlock()
			return p, nil
		}
		if wg := pc.inFlight[key]; wg != nil {
			pc.mu.Unlock()
			wg.Wait()
			continue
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		pc.inFlight[key] = wg
		dir := pc.dir
		pc.mu.Unlock()

		p, fromDisk, err := pc.load(dir, key, program, seed, n)
		pc.mu.Lock()
		if err == nil {
			pc.entries[key] = p
			if fromDisk {
				pc.diskHits++
			} else {
				pc.misses++
			}
		}
		delete(pc.inFlight, key)
		pc.mu.Unlock()
		wg.Done()
		return p, err
	}
}

// load fetches the profile from disk or computes it from a private
// generator stream, persisting fresh computations when a directory is attached.
func (pc *ProfileCache) load(dir, key, program string, seed, n uint64) (*predict.Profile, bool, error) {
	path := ""
	if dir != "" {
		path = filepath.Join(dir, key+".json")
		if b, err := os.ReadFile(path); err == nil {
			if p, derr := predict.Decode(b); derr == nil && p.Insts == n {
				return p, true, nil
			}
			// Corrupt or stale-schema entry: recompute and overwrite.
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, false, err
		}
	}
	stream, err := fresh(program, seed, n)
	if err != nil {
		return nil, false, err
	}
	p, err := predict.Summarize(program, seed, stream, n)
	if err != nil {
		return nil, false, err
	}
	if path != "" {
		if err := writeAtomic(path, p); err != nil {
			return nil, false, err
		}
	}
	return p, false, nil
}

// writeAtomic persists a profile via temp-file + rename so concurrent
// processes sharing the directory never observe a torn entry.
func writeAtomic(path string, p *predict.Profile) error {
	b, err := p.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".profile-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ProfileSpec returns the workload-level profile for a (possibly
// multi-stream) spec at the harness's instruction accounting: each stream
// is profiled over StreamBudgets' prefix — its warm-up share plus measured
// budget, the same window Execute simulates — and multi-stream mixes merge
// per-stream profiles.
func (pc *ProfileCache) ProfileSpec(spec workload.Spec, insts, warmup uint64) (*predict.Profile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	parts := make([]*predict.Profile, 0, len(spec.Streams))
	for i, n := range StreamBudgets(spec, insts, warmup) {
		s := spec.Streams[i]
		p, err := pc.Profile(s.Program, s.Seed, n)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return predict.Merge(parts), nil
}
