package results

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Store is a content-addressed result cache. Keys are the SHA-256 hex
// strings Request.Key produces. Implementations must be safe for
// concurrent use.
type Store interface {
	// Get returns the result for key and whether it was present.
	Get(key string) (Result, bool, error)
	// Put records the result for key. Overwriting an existing entry with
	// an identical result is a no-op; stores never need compare-and-swap
	// because a key fully determines its value.
	Put(key string, r Result) error
}

// MemoryLRU is an in-memory Store bounded to a fixed number of entries,
// evicting least-recently-used (Get counts as use).
type MemoryLRU struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *lruEntry
	entries map[string]*list.Element
}

type lruEntry struct {
	key string
	res Result
}

// NewMemoryLRU returns an LRU store holding at most capacity entries.
// capacity must be positive.
func NewMemoryLRU(capacity int) *MemoryLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &MemoryLRU{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get implements Store.
func (s *MemoryLRU) Get(key string) (Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return Result{}, false, nil
	}
	s.order.MoveToFront(el)
	return el.Value.(*lruEntry).res, true, nil
}

// Put implements Store.
func (s *MemoryLRU) Put(key string, r Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*lruEntry).res = r
		s.order.MoveToFront(el)
		return nil
	}
	s.entries[key] = s.order.PushFront(&lruEntry{key: key, res: r})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*lruEntry).key)
	}
	return nil
}

// Len returns the number of cached entries.
func (s *MemoryLRU) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Disk is an on-disk content-addressed Store. Entry layout is
// <dir>/<key[:2]>/<key>.json — the two-hex-digit fan-out keeps directory
// sizes flat at millions of entries. Writes go through WriteFileSync, so
// readers never observe a torn entry and a stored entry survives a host
// crash.
//
// With a size bound (NewDiskLimit) the store garbage-collects itself:
// when the summed entry size passes the bound, the least-recently-used
// entries are deleted until the store is back under ~90% of the bound.
// Recency is file timestamps: bounded stores touch an entry's times on
// every Get, so the ordering holds even on relatime/noatime mounts where
// reads do not advance atime. Deleting is always safe — every entry is
// re-simulatable, so eviction only costs a future cache miss.
type Disk struct {
	dir string
	// maxBytes bounds the summed entry size; 0 disables GC.
	maxBytes int64

	gcMu sync.Mutex // serializes GC passes
	size atomic.Int64
}

// NewDisk opens (creating if needed) a disk store rooted at dir, with no
// size bound.
func NewDisk(dir string) (*Disk, error) {
	return NewDiskLimit(dir, 0)
}

// NewDiskLimit opens a disk store bounded to roughly maxBytes of entries
// (0 = unbounded). The opening scan prices existing entries so a
// restarted daemon GCs correctly from the start.
func NewDiskLimit(dir string, maxBytes int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: open disk store: %w", err)
	}
	s := &Disk{dir: dir, maxBytes: maxBytes}
	if maxBytes > 0 {
		// One survey prices existing entries, prunes if already over the
		// bound, and seeds the running size counter.
		s.gc()
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Disk) Dir() string { return s.dir }

func (s *Disk) path(key string) (string, error) {
	if len(key) < 3 {
		return "", fmt.Errorf("results: malformed key %q", key)
	}
	return filepath.Join(s.dir, key[:2], key+".json"), nil
}

// Get implements Store. A corrupt entry — undecodable bytes, or a decoded
// record whose key disagrees with its filename — is quarantined and
// reported as a miss, never as an error: one torn or tampered file must
// cost a re-simulation, not poison every sweep that touches its key.
func (s *Disk) Get(key string) (Result, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return Result{}, false, err
	}
	b, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return Result{}, false, nil
	}
	if err != nil {
		return Result{}, false, fmt.Errorf("results: read %s: %w", key, err)
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil || r.Key != key {
		s.quarantine(p)
		return Result{}, false, nil
	}
	if s.maxBytes > 0 {
		// Touch the entry so GC's recency ordering holds on relatime and
		// noatime mounts, where the read above does not advance atime.
		// Best-effort: a failed touch only skews eviction order.
		now := time.Now()
		_ = os.Chtimes(p, now, now)
	}
	return r, true, nil
}

// quarantine moves a corrupt entry aside so the key reads as a miss and
// the next Put can land cleanly, while the bad bytes survive for
// inspection. If the rename fails the file is removed instead; if even
// that fails the entry stays (and keeps reading as corrupt = miss).
func (s *Disk) quarantine(p string) {
	if os.Rename(p, p+".corrupt") != nil {
		_ = os.Remove(p)
	}
}

// Put implements Store.
func (s *Disk) Put(key string, r Result) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("results: put %s: %w", key, err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("results: encode %s: %w", key, err)
	}
	if err := WriteFileSync(p, append(b, '\n')); err != nil {
		return fmt.Errorf("results: put %s: %w", key, err)
	}
	if s.maxBytes > 0 {
		if s.size.Add(int64(len(b)+1)) > s.maxBytes {
			s.gc()
		}
	}
	return nil
}

// WriteFileSync replaces path with data durably: the bytes go to a temp
// file in path's directory, which is fsynced and closed, then renamed over
// path, and the directory is fsynced last, because a rename survives a
// host crash only once its directory does. Readers see the old file or
// the new one, never a torn one; a failure leaves no temp file behind.
func WriteFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// diskEntry is one entry file surveyed for GC.
type diskEntry struct {
	path  string
	size  int64
	atime time.Time
}

// scan lists every entry file with its size and access time.
func (s *Disk) scan() []diskEntry {
	var out []diskEntry
	fans, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	for _, fan := range fans {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, fan.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			// Quarantined entries (.json.corrupt) count against the bound
			// and are prunable like anything else — a bounded store must
			// not grow without bound through its own quarantine.
			if f.IsDir() || (!strings.HasSuffix(f.Name(), ".json") && !strings.HasSuffix(f.Name(), ".json.corrupt")) {
				continue
			}
			fi, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, diskEntry{
				path:  filepath.Join(s.dir, fan.Name(), f.Name()),
				size:  fi.Size(),
				atime: atime(fi),
			})
		}
	}
	return out
}

// gc prunes least-recently-used entries until the store is under ~90% of
// the bound. One pass runs at a time; concurrent Puts queue behind the
// mutex only when they themselves trip the bound. The pass re-surveys the
// directory rather than trusting the running size counter (entries may
// have been quarantined or deleted externally) and resets the counter to
// what it measured.
func (s *Disk) gc() {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	entries := s.scan()
	var total int64
	for _, e := range entries {
		total += e.size
	}
	target := s.maxBytes * 9 / 10
	if total > target {
		sort.Slice(entries, func(i, j int) bool { return entries[i].atime.Before(entries[j].atime) })
		for _, e := range entries {
			if total <= target {
				break
			}
			if os.Remove(e.path) == nil {
				total -= e.size
			}
		}
	}
	s.size.Store(total)
}

// Tiered layers a fast front store over a durable back store: Get checks
// front first and promotes back-store hits; Put writes through to both.
type Tiered struct {
	front Store
	back  Store
}

// NewTiered combines front (typically MemoryLRU) and back (typically
// Disk).
func NewTiered(front, back Store) *Tiered {
	return &Tiered{front: front, back: back}
}

// Get implements Store.
func (s *Tiered) Get(key string) (Result, bool, error) {
	if r, ok, err := s.front.Get(key); err != nil || ok {
		return r, ok, err
	}
	r, ok, err := s.back.Get(key)
	if err != nil || !ok {
		return Result{}, false, err
	}
	if err := s.front.Put(key, r); err != nil {
		return Result{}, false, err
	}
	return r, true, nil
}

// Put implements Store.
func (s *Tiered) Put(key string, r Result) error {
	if err := s.back.Put(key, r); err != nil {
		return err
	}
	return s.front.Put(key, r)
}
