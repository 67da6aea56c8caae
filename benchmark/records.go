package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
)

// digest is the SHA-256 over the key-sorted JSON encodings of the
// records: two record sets have equal digests iff they hold byte-identical
// records for the same content keys.
func digest(recs []results.Result) (string, error) {
	s := append([]results.Result(nil), recs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Key < s[j].Key })
	h := sha256.New()
	for _, r := range s {
		b, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// simulatedLayer reduces a workload's records to the simulated per-layer
// metrics. They are sums and ratios of simulated counters, so they repeat
// exactly on every host: any change that only makes the simulator faster
// must leave all of them as they were.
func simulatedLayer(recs []results.Result, layer map[string]float64) {
	var t core.Stats
	for _, r := range recs {
		s := r.Stats
		t.Cycles += s.Cycles
		t.Committed += s.Committed
		t.Comms += s.Comms
		t.CommWait += s.CommWait
		t.NReady += s.NReady
		t.Branches += s.Branches
		t.Mispredicts += s.Mispredicts
		t.StallIQ += s.StallIQ
		t.StallRegs += s.StallRegs
		t.StallROB += s.StallROB
		t.StallLSQ += s.StallLSQ
		t.StallComm += s.StallComm
		t.StallFetchMt += s.StallFetchMt
	}
	layer["core.sim_cycles"] = float64(t.Cycles)
	layer["core.sim_committed"] = float64(t.Committed)
	layer["core.sim_ipc"] = t.IPC()
	layer["core.sim_comms_per_inst"] = t.CommsPerInst()
	layer["core.sim_comm_wait_per_comm"] = t.AvgCommWait()
	layer["core.sim_nready_per_cycle"] = t.AvgNReady()
	layer["core.sim_mispredict_rate"] = t.MispredictRate()
	layer["core.sim_stall_iq"] = float64(t.StallIQ)
	layer["core.sim_stall_regs"] = float64(t.StallRegs)
	layer["core.sim_stall_rob"] = float64(t.StallROB)
	layer["core.sim_stall_lsq"] = float64(t.StallLSQ)
	layer["core.sim_stall_comm"] = float64(t.StallComm)
	layer["core.sim_stall_fetch"] = float64(t.StallFetchMt)
}

// fig6Layer adds the paper's headline Ring-over-Conv speedups for record
// sets that hold the Figure-6 grid. Programs are matched by bare name, so
// the seeded variants ("gcc@1003") aggregate like the originals.
func fig6Layer(recs []results.Result, layer map[string]float64) {
	res := make(map[harness.Key]harness.Run, len(recs))
	for _, r := range recs {
		prog, _, _ := strings.Cut(r.Program, "@")
		res[harness.Key{Config: r.Config, Workload: prog}] = harness.Run{Workload: prog, Stats: r.Stats}
	}
	const ring, conv = "Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW"
	for suite, name := range map[harness.Suite]string{
		harness.SuiteAll: "core.fig6_speedup_avg_pct",
		harness.SuiteInt: "core.fig6_speedup_int_pct",
		harness.SuiteFP:  "core.fig6_speedup_fp_pct",
	} {
		sp, _ := harness.SpeedupDetail(res, ring, conv, suite)
		layer[name] = 100 * sp
	}
}

// resultsLayer times the two pure functions of the results layer every
// submission and every store write pays: the content key of a request and
// the encoding of a record.
func resultsLayer(reqs []harness.Request, recs []results.Result, layer map[string]float64) {
	if len(reqs) > 0 {
		t0 := time.Now()
		for _, r := range reqs {
			_, _ = results.NewRequest(r).Key() // timing only; keys were checked at set-up
		}
		layer["results.key_us_per_op"] = float64(time.Since(t0).Microseconds()) / float64(len(reqs))
	}
	if len(recs) > 0 {
		t0 := time.Now()
		for _, r := range recs {
			_, _ = json.Marshal(r) // timing only
		}
		layer["results.encode_us_per_op"] = float64(time.Since(t0).Microseconds()) / float64(len(recs))
	}
}

// Span names of the store decorator.
const (
	spStoreGet = "results.store_get"
	spStorePut = "results.store_put"
)

// recStore wraps a result store from outside: it remembers what was put
// (the explore workload's records exist nowhere else), counts gets, puts
// and hits, and spans each call when the pass is traced.
type recStore struct {
	inner results.Store
	tr    *tracer

	mu               sync.Mutex
	put              map[string]results.Result
	gets, hits, puts int
}

func newRecStore(inner results.Store, tr *tracer) *recStore {
	return &recStore{inner: inner, tr: tr, put: make(map[string]results.Result)}
}

func (s *recStore) Get(key string) (results.Result, bool, error) {
	id := s.tr.start(spStoreGet, key, 0)
	r, ok, err := s.inner.Get(key)
	s.tr.end(id)
	s.mu.Lock()
	s.gets++
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return r, ok, err
}

func (s *recStore) Put(key string, r results.Result) error {
	id := s.tr.start(spStorePut, key, 0)
	err := s.inner.Put(key, r)
	s.tr.end(id)
	s.mu.Lock()
	s.puts++
	s.put[key] = r
	s.mu.Unlock()
	return err
}

// records returns everything put so far, in key order, so that sums over
// them do not depend on map iteration.
func (s *recStore) records() []results.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]results.Result, 0, len(s.put))
	for _, r := range s.put {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// storeLayer reports the store counters and, on a traced pass, the time
// spent inside the store.
func (s *recStore) storeLayer(layer map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	layer["results.store_gets"] = float64(s.gets)
	layer["results.store_puts"] = float64(s.puts)
	if s.gets > 0 {
		layer["results.store_hit_ratio"] = float64(s.hits) / float64(s.gets)
	}
	if s.tr != nil {
		t := totals(s.tr.spans)
		layer["results.store_get_s"] = t.dur[spStoreGet]
		layer["results.store_put_s"] = t.dur[spStorePut]
	}
}
