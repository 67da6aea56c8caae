package harness

import (
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TraceCache materializes each workload stream's deterministic
// instruction sequence once, in the encoded form of trace.Packed (about
// six bytes an instruction), and replays it read-only, so the runs that share a stream generate its trace
// a single time instead of once each. Entries are keyed per stream —
// (program, seed) — so two mixes sharing a stream share its trace, and two
// seeds of one program materialize separately. Program names are canonical
// by the time they reach the cache (workload.ParseSpec normalizes synthetic
// specs), so equivalent spellings of one synth workload share a single
// entry. Entries extend in place: a request for a longer prefix pulls more
// instructions from the stream's retained generator into new segments,
// allocated segment by segment as the records arrive and cut to the
// records at the requested length, and outstanding shorter views stay
// valid (extension never rewrites a published byte).
//
// A trace lives only while unfinished work names it. A consumer Holds the
// streams of the work it has accepted — a request list, an exploration's
// suite, a queued run — and Releases each when that work is done; the
// entry is freed at its last holder's Release. Views already handed out
// stay valid (they keep the records reachable), and a later request
// materializes the stream again, bit-identically. Memory therefore follows
// what is in flight, not what a long-lived process has ever seen. A stream
// nobody holds is unmanaged: Stream still shares it through an entry that
// stays until some holder's last Release.
//
// Every trace is generated in the process that replays it: a fleet worker
// materializes its leased streams through this cache like any other
// consumer, and a dispatch-only coordinator, which simulates nothing,
// materializes nothing.
//
// The cache is safe for concurrent use and bounded by a total-instruction
// budget over the resident entries; requests it cannot admit fall back to
// a private generator, so a consumer that holds more than the budget
// degrades to the unshared behaviour instead of failing.
type TraceCache struct {
	budget uint64 // total instructions across resident entries; 0 = unlimited

	// mu guards the fields below and every entry's reserved and booked
	// counts. It is only ever taken last: an entry lock may be held while
	// taking it, never the other way round.
	mu        sync.Mutex
	total     uint64 // reserved instructions across entries
	bytes     uint64 // memory the entries' packed stores hold
	peak      uint64 // high-water mark of bytes
	hits      uint64
	misses    uint64
	fallbacks uint64
	dropped   uint64
	entries   map[streamKey]*traceEntry
	holds     map[streamKey]int // holders per stream, resident or not
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
// claimed budget for and booked the store bytes counted in the cache's
// total, both tracked under the cache lock (the store itself is only
// touched under the entry lock). An entry is resident while it is the
// cache's entry for its key; one that has left (released, or failed) may
// still serve the calls that already reached it, uncounted.
type traceEntry struct {
	reserved uint64
	booked   uint64

	mu     sync.Mutex
	gen    trace.Stream // nil until first needed: built under mu, not the cache lock
	store  trace.Packed
	failed bool // materialization failed; the entry has left the cache
}

// NewTraceCache returns a cache bounded to roughly budget materialized
// instructions in total (0 = unlimited).
func NewTraceCache(budget uint64) *TraceCache {
	return &TraceCache{
		budget:  budget,
		entries: make(map[streamKey]*traceEntry),
		holds:   make(map[streamKey]int),
	}
}

// DefaultTraceCache backs Execute. Its budget (64M instructions, about
// 420 MB at the 6.6 bytes an instruction the largest of the 26 programs
// measures) is a safety cap on what can be held at once, not an expected
// size: the paper grid at 300k+50k instructions names 9.1M (56 MB
// measured) in total, and its workers share one workload at a time (two
// while they cross from one to the next).
var DefaultTraceCache = NewTraceCache(64 << 20)

// TraceCacheStats is a point-in-time snapshot of the cache's occupancy
// and service counters, exported by the server's /metrics endpoint: with
// synthetic specs the workload space is unbounded, so trace generation
// is a first-class cost operators need visibility into.
type TraceCacheStats struct {
	// Entries is the number of resident (materialized) streams.
	Entries int
	// Held is the number of streams at least one consumer holds, resident
	// or not yet materialized.
	Held int
	// Insts is the total reserved instruction budget across entries.
	Insts uint64
	// Bytes is the memory the entries' packed stores hold: what has
	// actually been allocated for materialized records, slack included.
	// PeakBytes is its high-water mark.
	Bytes, PeakBytes uint64
	// Hits counts Stream calls served from an existing entry; Misses
	// counts calls that materialized a new entry or fell back to a
	// private generator because the budget was exhausted.
	Hits, Misses uint64
	// Fallbacks counts Stream calls the budget turned away (each is also
	// a hit or a miss): sustained growth means more is held at once than
	// the budget admits.
	Fallbacks uint64
	// Dropped counts entries freed at their last holder's Release.
	Dropped uint64
}

// Stats returns a snapshot of the cache counters.
func (tc *TraceCache) Stats() TraceCacheStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return TraceCacheStats{
		Entries:   len(tc.entries),
		Held:      len(tc.holds),
		Insts:     tc.total,
		Bytes:     tc.bytes,
		PeakBytes: tc.peak,
		Hits:      tc.hits,
		Misses:    tc.misses,
		Fallbacks: tc.fallbacks,
		Dropped:   tc.dropped,
	}
}

// Hold registers the caller as a holder of every stream of spec: their
// traces, once materialized, stay resident until the matching Release.
// Holds count — a stream named twice, by one spec or by two consumers, is
// held twice — and cost nothing until a Stream call materializes the
// stream.
func (tc *TraceCache) Hold(spec workload.Spec) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, s := range spec.Streams {
		tc.holds[streamKey{program: s.Program, seed: s.Seed}]++
	}
}

// Release undoes one Hold of spec. A stream whose last holder lets go is
// freed on the spot: its entry leaves the cache with its budget, and the
// records go with the last outstanding view.
func (tc *TraceCache) Release(spec workload.Spec) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, s := range spec.Streams {
		key := streamKey{program: s.Program, seed: s.Seed}
		switch n := tc.holds[key]; {
		case n > 1:
			tc.holds[key] = n - 1
			continue
		case n == 0:
			panic("harness: TraceCache.Release of a stream nobody holds: " + s.Program)
		}
		delete(tc.holds, key)
		if e := tc.entries[key]; e != nil {
			tc.removeLocked(key, e)
			tc.dropped++
		}
	}
}

// removeLocked takes a resident entry out of the cache with everything
// reserved and booked for it. Callers hold tc.mu.
func (tc *TraceCache) removeLocked(key streamKey, e *traceEntry) {
	delete(tc.entries, key)
	tc.total -= e.reserved
	tc.bytes -= e.booked
}

// Stream returns a trace.Stream yielding exactly the first n dynamic
// instructions of the named program under the given seed override (0 =
// program default): a replay of the shared materialized trace when the
// budget admits it, otherwise a freshly generated stream. Both paths
// produce bit-identical instruction sequences. Program may be a fixed
// profile name or a canonical synthetic spec (workload.NewStream
// resolves both). Callers Hold the stream for as long as they, or work
// queued behind them, will ask for it again.
func (tc *TraceCache) Stream(program string, seed, n uint64) (trace.Stream, error) {
	key := streamKey{program: program, seed: seed}
	e := tc.reserve(key, n)
	if e == nil {
		return fresh(program, seed, n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed { // a concurrent materialization failure took the entry out
		return fresh(program, seed, n)
	}
	if uint64(e.store.Len()) < n {
		err := e.extend(program, seed, n)
		tc.settle(key, e, err != nil)
		if err != nil {
			return nil, err
		}
	}
	return e.store.View(int(n)).Replay(), nil
}

// reserve finds or creates the entry for key, counts the call as a hit or
// a miss, and claims budget for the first n instructions. It returns nil
// when the budget cannot admit the claim.
func (tc *TraceCache) reserve(key streamKey, n uint64) *traceEntry {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e := tc.entries[key]
	var grow uint64
	if e == nil {
		tc.misses++
		grow = n
	} else {
		tc.hits++
		if n > e.reserved {
			grow = n - e.reserved
		}
	}
	if tc.budget != 0 && grow != 0 && tc.total+grow > tc.budget {
		tc.fallbacks++
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

// settle runs with e.mu held after the entry's store may have grown: it
// books the growth, or — when materialization failed — takes the entry
// out of the cache with everything reserved for it, so a bad program name
// cannot pin budget. An entry that left the cache in the meantime (its
// last holder released it) is no longer counted. Views already handed out
// stay valid.
func (tc *TraceCache) settle(key streamKey, e *traceEntry, failed bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if failed {
		e.failed = true
	}
	if tc.entries[key] != e {
		return
	}
	if failed {
		tc.removeLocked(key, e)
		return
	}
	tc.bytes += e.store.Bytes() - e.booked
	e.booked = e.store.Bytes()
	if tc.bytes > tc.peak {
		tc.peak = tc.bytes
	}
}

// extend materializes the entry up to n instructions, with e.mu held,
// building the generator on first need.
func (e *traceEntry) extend(program string, seed, n uint64) error {
	if e.gen == nil {
		gen, err := workload.NewStream(program, seed)
		if err != nil {
			return err
		}
		e.gen = gen
	}
	e.store.Reserve(int(n))
	return e.store.Extend(e.gen, int(n))
}

// fresh builds the unshared fallback stream.
func fresh(program string, seed, n uint64) (trace.Stream, error) {
	gen, err := workload.NewStream(program, seed)
	if err != nil {
		return nil, err
	}
	return trace.NewLimit(gen, n), nil
}
