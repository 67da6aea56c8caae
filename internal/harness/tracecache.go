package harness

import (
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TraceCache materializes each workload stream's deterministic
// instruction sequence once, in the packed form of trace.Packed, and
// replays it read-only, so a grid that runs the same stream under many
// configurations generates the trace a single time instead of once per
// configuration. Entries are keyed per stream — (program, seed) — so two
// mixes sharing a stream share its trace, and two seeds of one program
// materialize separately. Program names are canonical by the time they
// reach the cache (workload.ParseSpec normalizes synthetic specs), so
// equivalent spellings of one synth workload share a single entry. Entries
// extend in place: a request for a longer prefix pulls more instructions
// from the stream's retained generator into a new exactly-sized segment,
// and outstanding shorter views stay valid (extension never moves or
// rewrites a published record).
//
// The cache is safe for concurrent use and bounded by a total-instruction
// budget; requests it cannot admit fall back to a private generator, so
// oversized sweeps degrade to the unshared behaviour instead of evicting
// (grids revisit every stream round-robin, which would thrash any LRU).
type TraceCache struct {
	budget uint64 // total instructions across streams; 0 = unlimited

	// mu guards the fields below and every entry's reserved count. It is
	// only ever taken last: an entry lock may be held while taking it,
	// never the other way round.
	mu      sync.Mutex
	total   uint64 // reserved instructions across entries
	bytes   uint64 // memory the entries' packed stores hold
	hits    uint64
	misses  uint64
	entries map[streamKey]*traceEntry
}

// streamKey identifies one materialized stream: a canonical program name
// plus the seed override (0 = the program's own seed).
type streamKey struct {
	program string
	seed    uint64
}

// traceEntry is one stream's materialized prefix plus the generator that
// extends it. The entry lock serializes extension; readers of published
// views need no lock. reserved is the longest prefix any request has
// claimed budget for, tracked under the cache lock (the store itself is
// only touched under the entry lock).
type traceEntry struct {
	reserved uint64

	mu      sync.Mutex
	gen     trace.Stream // nil until first needed: built under mu, not the cache lock
	store   trace.Packed
	dropped bool // materialization failed; the entry has left the cache
}

// NewTraceCache returns a cache bounded to roughly budget materialized
// instructions in total (0 = unlimited).
func NewTraceCache(budget uint64) *TraceCache {
	return &TraceCache{budget: budget, entries: make(map[streamKey]*traceEntry)}
}

// DefaultTraceCache backs Execute. Its budget (64M instructions) covers
// the full suite at the paper's default instruction counts many times
// over: the paper grid at 300k+50k instructions holds 9.1M (218 MB at 24
// bytes a record), and the cache can reach 1.5 GB at most in a long-lived
// daemon fed ever-new synthetic specs.
var DefaultTraceCache = NewTraceCache(64 << 20)

// TraceCacheStats is a point-in-time snapshot of the cache's occupancy
// and service counters, exported by the server's /metrics endpoint: with
// synthetic specs the workload space is unbounded, so trace generation
// is a first-class cost operators need visibility into.
type TraceCacheStats struct {
	// Entries is the number of materialized streams.
	Entries int
	// Insts is the total reserved instruction budget across entries.
	Insts uint64
	// Bytes is the memory the entries' packed stores hold: what has
	// actually been allocated for materialized records, slack included.
	Bytes uint64
	// Hits counts Stream calls served from an existing entry; Misses
	// counts calls that materialized a new entry or fell back to a
	// private generator because the budget was exhausted.
	Hits, Misses uint64
}

// Stats returns a snapshot of the cache counters.
func (tc *TraceCache) Stats() TraceCacheStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return TraceCacheStats{
		Entries: len(tc.entries),
		Insts:   tc.total,
		Bytes:   tc.bytes,
		Hits:    tc.hits,
		Misses:  tc.misses,
	}
}

// Stream returns a trace.Stream yielding exactly the first n dynamic
// instructions of the named program under the given seed override (0 =
// program default): a replay of the shared materialized trace when the
// budget admits it, otherwise a freshly generated stream. Both paths
// produce bit-identical instruction sequences. Program may be a fixed
// profile name or a canonical synthetic spec (workload.NewStream
// resolves both).
func (tc *TraceCache) Stream(program string, seed, n uint64) (trace.Stream, error) {
	key := streamKey{program: program, seed: seed}
	e := tc.reserve(key, n, true)
	if e == nil {
		return fresh(program, seed, n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dropped { // a concurrent materialization failure took the entry out
		return fresh(program, seed, n)
	}
	if uint64(e.store.Len()) < n {
		before := e.store.Bytes()
		err := e.extend(program, seed, n)
		tc.settle(key, e, before, err != nil)
		if err != nil {
			return nil, err
		}
	}
	return e.store.View(int(n)).Replay(), nil
}

// reserve finds or creates the entry for key and claims budget for its
// first n instructions, counting the call as a hit or a miss when count is
// set. It returns nil when the budget cannot admit the claim.
func (tc *TraceCache) reserve(key streamKey, n uint64, count bool) *traceEntry {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e := tc.entries[key]
	if count {
		if e == nil {
			tc.misses++
		} else {
			tc.hits++
		}
	}
	var grow uint64
	if e == nil {
		grow = n
	} else if n > e.reserved {
		grow = n - e.reserved
	}
	if tc.budget != 0 && grow != 0 && tc.total+grow > tc.budget {
		return nil
	}
	if e == nil {
		e = &traceEntry{}
		tc.entries[key] = e
	}
	e.reserved += grow
	tc.total += grow
	return e
}

// settle runs with e.mu held after the entry's store may have grown from
// before bytes: it books the growth, or — when materialization failed —
// takes the entry out of the cache with everything reserved for it, so a
// bad program name cannot pin budget. Views already handed out stay valid.
func (tc *TraceCache) settle(key streamKey, e *traceEntry, before uint64, failed bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if !failed {
		tc.bytes += e.store.Bytes() - before
		return
	}
	e.dropped = true
	delete(tc.entries, key)
	tc.total -= e.reserved
	tc.bytes -= before
}

// extend materializes the entry up to n instructions, with e.mu held. The
// generator is built on first need: for a new entry that is now, and for
// one seeded by Install (a fetched trace) it is when a request outgrows
// what was fetched — the generator then fast-forwards past the installed
// prefix, and because generation is deterministic the regenerated suffix
// continues it exactly.
func (e *traceEntry) extend(program string, seed, n uint64) error {
	if e.gen == nil {
		gen, err := workload.NewStream(program, seed)
		if err != nil {
			return err
		}
		if _, err := trace.Skip(gen, uint64(e.store.Len())); err != nil {
			return err
		}
		e.gen = gen
	}
	e.store.Reserve(int(n))
	return e.store.Extend(e.gen, int(n))
}

// MaterializedLen reports how many instructions of (program, seed) are
// currently materialized. Fleet workers use it to skip fetching traces
// they already hold.
func (tc *TraceCache) MaterializedLen(program string, seed uint64) uint64 {
	tc.mu.Lock()
	e := tc.entries[streamKey{program: program, seed: seed}]
	tc.mu.Unlock()
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return uint64(e.store.Len())
}

// Install seeds the cache with an externally materialized prefix of
// (program, seed) — a trace fetched from a fleet coordinator — so
// subsequent Stream calls replay it instead of generating. A stream the
// cache does not hold yet adopts p as its store (the caller must not
// append to p afterwards); installing over an existing entry copies only
// the portion past what is already materialized (published records are
// never rewritten, so outstanding views stay valid; generation is
// deterministic, so the overlap is bit-identical by construction). It
// reports false when the instruction budget cannot admit the trace; the
// caller falls back to local generation.
func (tc *TraceCache) Install(program string, seed uint64, p *trace.Packed) bool {
	n := uint64(p.Len())
	if n == 0 {
		return true
	}
	key := streamKey{program: program, seed: seed}
	e := tc.reserve(key, n, false)
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dropped {
		return false
	}
	have := e.store.Len()
	if uint64(have) >= n {
		return true
	}
	before := e.store.Bytes()
	var err error
	if have == 0 {
		e.store = *p
	} else {
		tail := p.View(int(n)).Replay()
		if _, err = trace.Skip(tail, uint64(have)); err == nil {
			e.store.Reserve(int(n))
			err = e.store.Extend(tail, int(n))
		}
		// The generator, if any, is now behind the store; extend rebuilds
		// it past the new length if a request ever outgrows this prefix.
		e.gen = nil
	}
	tc.settle(key, e, before, err != nil)
	return err == nil
}

// fresh builds the unshared fallback stream.
func fresh(program string, seed, n uint64) (trace.Stream, error) {
	gen, err := workload.NewStream(program, seed)
	if err != nil {
		return nil, err
	}
	return trace.NewLimit(gen, n), nil
}
