package results

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// fakeResult builds a distinguishable result for store tests. Keys must
// be ≥ 3 characters for the disk layout, so tests use full-width fakes.
func fakeResult(i int) (string, Result) {
	key := fmt.Sprintf("%064d", i)
	return key, Result{Key: key, Config: "Ring_8clus_1bus_2IW", Program: fmt.Sprintf("prog%d", i)}
}

func TestMemoryLRUEvictsOldest(t *testing.T) {
	s := NewMemoryLRU(2)
	k0, r0 := fakeResult(0)
	k1, r1 := fakeResult(1)
	k2, r2 := fakeResult(2)
	for k, r := range map[string]Result{k0: r0, k1: r1} {
		if err := s.Put(k, r); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes the eviction victim.
	if _, ok, _ := s.Get(k0); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := s.Put(k2, r2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(k1); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok, _ := s.Get(k0); !ok {
		t.Error("recently-used entry was evicted")
	}
	if _, ok, _ := s.Get(k2); !ok {
		t.Error("new entry missing")
	}
	if s.Len() != 2 {
		t.Errorf("Len() = %d, want 2", s.Len())
	}
}

func TestMemoryLRUOverwrite(t *testing.T) {
	s := NewMemoryLRU(4)
	k, r := fakeResult(7)
	if err := s.Put(k, r); err != nil {
		t.Fatal(err)
	}
	r.Program = "updated"
	if err := s.Put(k, r); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if got.Program != "updated" {
		t.Errorf("overwrite lost: %q", got.Program)
	}
	if s.Len() != 1 {
		t.Errorf("Len() = %d after overwrite, want 1", s.Len())
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, r := fakeResult(42)
	r.Stats.Cycles = 123
	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}
	if err := s.Put(k, r); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after Put = %v, %v", ok, err)
	}
	if got.Stats.Cycles != 123 || got.Program != r.Program {
		t.Errorf("disk round trip mutated the result: %+v", got)
	}
	// Content-addressed layout: <dir>/<key[:2]>/<key>.json.
	if _, err := os.Stat(filepath.Join(dir, k[:2], k+".json")); err != nil {
		t.Errorf("expected fan-out layout: %v", err)
	}
	// No stray temp files.
	entries, err := os.ReadDir(filepath.Join(dir, k[:2]))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("store directory has %d entries, want 1", len(entries))
	}
	// A second store on the same directory sees the entry (persistence).
	s2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Get(k); err != nil || !ok {
		t.Errorf("entry not visible to a fresh store: %v, %v", ok, err)
	}
}

// TestWriteFileSync: the file's content is replaced, and neither a
// success nor a failed write leaves a temp file in the directory.
func TestWriteFileSync(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f.json")
	for _, data := range []string{"first\n", "second, longer\n"} {
		if err := WriteFileSync(p, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(p); err != nil || string(got) != data {
			t.Fatalf("content = %q, %v; want %q", got, err, data)
		}
	}
	// A rename onto a non-empty directory fails after the temp file was
	// written.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileSync(blocked, []byte("lost\n")); err == nil {
		t.Fatal("a write over a directory succeeded")
	}
	if err := WriteFileSync(filepath.Join(dir, "missing", "f.json"), []byte("lost\n")); err == nil {
		t.Fatal("a write into a missing directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "blocked f.json" {
		t.Errorf("directory holds %v, want [blocked f.json]", names)
	}
}

func TestDiskRejectsMalformedKey(t *testing.T) {
	s, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("ab"); err == nil {
		t.Error("short key accepted")
	}
	if err := s.Put("ab", Result{}); err == nil {
		t.Error("short key accepted on Put")
	}
}

func TestTieredPromotesBackHits(t *testing.T) {
	mem := NewMemoryLRU(8)
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, r := fakeResult(9)
	// Seed only the back store, as if written by a previous process.
	if err := disk.Put(k, r); err != nil {
		t.Fatal(err)
	}
	s := NewTiered(mem, disk)
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("tiered Get missed a back-store entry: %v, %v", ok, err)
	}
	if _, ok, _ := mem.Get(k); !ok {
		t.Error("back-store hit was not promoted to the front store")
	}
	// Put writes through to both tiers.
	k2, r2 := fakeResult(10)
	if err := s.Put(k2, r2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := mem.Get(k2); !ok {
		t.Error("Put skipped the front store")
	}
	if _, ok, _ := disk.Get(k2); !ok {
		t.Error("Put skipped the back store")
	}
}

// TestDiskCorruptEntryIsMiss is the torn-cache regression: an entry that
// cannot decode, or decodes to the wrong key, must read as a miss (not an
// error that would fail every sweep touching it), must be quarantined out
// of the way, and must be writable again.
func TestDiskCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, r := fakeResult(3)
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"truncated", []byte(`{"key":"` + k + `","config":"Ring`)},
		{"garbage", []byte("\x00\x01not json at all")},
		{"wrong key", []byte(`{"key":"` + strings.Repeat("f", 64) + `"}`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := filepath.Join(dir, k[:2], k+".json")
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, c.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.Get(k); err != nil || ok {
				t.Fatalf("corrupt entry Get = %v, %v; want miss with nil error", ok, err)
			}
			// The bad bytes were moved aside, so a fresh Put and Get work.
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("corrupt entry still in place: %v", err)
			}
			if err := s.Put(k, r); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := s.Get(k); err != nil || !ok || got.Program != r.Program {
				t.Fatalf("Put after quarantine: %+v, %v, %v", got, ok, err)
			}
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiskGC: a size-bounded disk store must prune least-recently-used
// entries (by atime) once the bound is exceeded, keep recently-touched
// ones, and a fresh open over an oversized directory must prune at
// startup.
func TestDiskGC(t *testing.T) {
	dir := t.TempDir()
	// Unbounded store seeds entries so we control sizes and times.
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	var entrySize int64
	for i := 0; i < 10; i++ {
		key, r := fakeResult(i)
		if err := s.Put(key, r); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		p, _ := s.path(key)
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		entrySize = fi.Size()
		// Stagger access times: keys[0] coldest, keys[9] hottest.
		when := time.Now().Add(time.Duration(i-20) * time.Hour)
		if err := os.Chtimes(p, when, when); err != nil {
			t.Fatal(err)
		}
	}

	// Re-open with room for ~5 entries: the opening scan must prune the
	// coldest so the total lands under 90% of the bound.
	limit := entrySize*5 + entrySize/2
	s2, err := NewDiskLimit(dir, limit)
	if err != nil {
		t.Fatal(err)
	}
	var kept, lost int
	for i, key := range keys {
		_, ok, err := s2.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			kept++
			if i < 5 {
				t.Errorf("cold entry %d survived GC while hot ones were candidates", i)
			}
		} else {
			lost++
		}
	}
	if kept == 0 || lost == 0 {
		t.Fatalf("GC pruned everything or nothing: kept %d lost %d", kept, lost)
	}
	if kept > 5 {
		t.Errorf("store still holds %d entries over a %d-byte bound", kept, limit)
	}
	// The hottest entry must have survived.
	if _, ok, _ := s2.Get(keys[9]); !ok {
		t.Error("most-recently-used entry was pruned")
	}

	// Writes past the bound trigger GC inline: flood and check the store
	// stays bounded.
	for i := 100; i < 120; i++ {
		key, r := fakeResult(i)
		if err := s2.Put(key, r); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, e := range s2.scan() {
		total += e.size
	}
	if total > limit {
		t.Fatalf("store grew to %d bytes past the %d bound", total, limit)
	}
}

func TestOpenDir(t *testing.T) {
	if s, err := OpenDir("", 0); s != nil || err != nil {
		t.Fatalf("OpenDir without a directory = %v, %v; want nil, nil", s, err)
	}
	dir := t.TempDir()
	s, err := OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer harness.DefaultProfileCache.SetDir("")
	key := strings.Repeat("ab", 32)
	if err := s.Put(key, Result{Key: key, Config: "c", Program: "gcc"}); err != nil {
		t.Fatal(err)
	}
	disk, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok, err := disk.Get(key); err != nil || !ok || r.Program != "gcc" {
		t.Fatalf("the entry did not reach the directory: %+v, %v, %v", r, ok, err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "profiles")); err != nil || !fi.IsDir() {
		t.Fatalf("no profile directory: %v", err)
	}
}
