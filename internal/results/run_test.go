package results

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// countingStore is a MemoryLRU that counts calls and fails them on
// demand: every Get with getErr, a Put with the error putErr names for
// its key.
type countingStore struct {
	*MemoryLRU
	getErr error
	putErr map[string]error

	mu         sync.Mutex
	gets, puts int
}

func (s *countingStore) Get(key string) (Result, bool, error) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	if s.getErr != nil {
		return Result{}, false, s.getErr
	}
	return s.MemoryLRU.Get(key)
}

func (s *countingStore) Put(key string, r Result) error {
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	if err := s.putErr[key]; err != nil {
		return err
	}
	return s.MemoryLRU.Put(key, r)
}

// TestRunSettlesThroughStore pins results.Run's store policy: what is a
// hit, that a repeated key simulates once, that failed records are
// neither served nor stored, and that store errors stay on their own
// outcome. The misses run on two GridRunsN workers (-race, x10 in CI).
func TestRunSettlesThroughStore(t *testing.T) {
	cfg := core.MustPaperConfig(core.ArchRing, 4, 2, 1)
	req := func(prog string) harness.Request {
		return harness.Request{Config: cfg, Workload: workload.Single(prog), Insts: 1_000, Warmup: 200}
	}
	a, b, bad := req("gcc"), req("mcf"), req("no-such-program")
	keyOf := func(r harness.Request) string {
		key, err := NewRequest(r).Key()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	fresh := func(r harness.Request) Result {
		res, err := FromRun(r, harness.Execute(r))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	recA, recB, recBad := fresh(a), fresh(b), fresh(bad)
	if !recBad.Failed() {
		t.Fatal("a run over an unknown program succeeded")
	}
	// A stored record Run must serve as-is: nothing simulates these stats.
	stored := Result{Key: keyOf(a), Config: cfg.Name, Program: "gcc", Class: "INT", Stats: core.Stats{Cycles: 7, Committed: 5}}
	errDisk := errors.New("disk full")

	cases := []struct {
		name       string
		noStore    bool
		seed       []Result
		getErr     error
		putErr     map[string]error
		reqs       []harness.Request
		want       []Outcome
		gets, puts int
	}{
		{name: "hit", seed: []Result{stored}, reqs: []harness.Request{a},
			want: []Outcome{{Result: stored, Hit: true}}, gets: 1},
		{name: "miss is written back", reqs: []harness.Request{a},
			want: []Outcome{{Result: recA}}, gets: 1, puts: 1},
		{name: "repeated key simulates once", reqs: []harness.Request{a, b, a},
			want: []Outcome{{Result: recA}, {Result: recB}, {Result: recA, Hit: true}}, gets: 2, puts: 2},
		{name: "stored failure simulates again", seed: []Result{{Key: keyOf(a), Config: cfg.Name, Program: "gcc", Err: "boom"}},
			reqs: []harness.Request{a}, want: []Outcome{{Result: recA}}, gets: 1, puts: 1},
		{name: "failed run is not stored", reqs: []harness.Request{bad, a},
			want: []Outcome{{Result: recBad}, {Result: recA}}, gets: 2, puts: 1},
		{name: "put error stays on its outcome", putErr: map[string]error{keyOf(a): errDisk}, reqs: []harness.Request{a, b},
			want: []Outcome{{Result: recA, PutErr: errDisk}, {Result: recB}}, gets: 2, puts: 2},
		{name: "get error is a miss", seed: []Result{stored}, getErr: errDisk, reqs: []harness.Request{a},
			want: []Outcome{{Result: recA}}, gets: 1, puts: 1},
		{name: "nil store", noStore: true, reqs: []harness.Request{a, a},
			want: []Outcome{{Result: recA}, {Result: recA, Hit: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := &countingStore{MemoryLRU: NewMemoryLRU(16), getErr: tc.getErr, putErr: tc.putErr}
			for _, r := range tc.seed {
				if err := cs.MemoryLRU.Put(r.Key, r); err != nil {
					t.Fatal(err)
				}
			}
			var store Store = cs
			if tc.noStore {
				store = nil
			}
			got := Run(store, tc.reqs, 2)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("outcomes:\n got %+v\nwant %+v", got, tc.want)
			}
			if cs.gets != tc.gets || cs.puts != tc.puts {
				t.Errorf("store saw %d gets, %d puts; want %d, %d", cs.gets, cs.puts, tc.gets, tc.puts)
			}
			if tc.noStore {
				return
			}
			// A simulated record is kept unless it failed or its Put did.
			for i, o := range got {
				if o.Hit {
					continue
				}
				held, ok, _ := cs.MemoryLRU.Get(keyOf(tc.reqs[i]))
				if keep := !o.Failed() && o.PutErr == nil; keep != (ok && reflect.DeepEqual(held, o.Result)) {
					t.Errorf("outcome %d (%s): store holds %v, want %v", i, o.Program, ok, keep)
				}
			}
		})
	}
}
