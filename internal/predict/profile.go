// Package predict implements the analytical twin of the simulator: a
// content-addressed trace summary profile plus a closed-form IPC model
// that scores a (workload, configuration) pair in microseconds instead of
// a full discrete-event run.
//
// The twin exists to gate the simulator during design-space exploration
// (internal/dse): the model ranks every candidate of a space from one
// cheap profile per workload, and only the predicted Pareto frontier and
// its ε-neighborhood pay for real simulations. Predictions are estimates
// — the model is calibrated, not exact — so every consumer records
// predicted-vs-simulated error (MAPE) as a first-class metric.
//
// A Profile is a pure function of the first N instructions of a workload
// stream: instruction mix, a dependence-distance histogram and the
// infinite-resource dataflow critical path (ILP), the mispredict count of
// the paper's own hybrid predictor model replayed over the branch stream,
// a reuse-distance histogram over cache lines (working-set-derived miss
// estimates), and — per candidate cluster count — the communication count
// and ring hop-distance distribution of a lightweight steering twin that
// mimics the dependence-based cluster assignment of both architectures.
// Equal (program, seed, insts) triples produce byte-identical profiles,
// so profiles are cached and shared exactly like materialized traces
// (see harness.ProfileCache).
package predict

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// SchemaV1 identifies the profile encoding; it is part of the content
// key, so a model-visible change to profile semantics must bump it.
const SchemaV1 = "ringsim-profile/1"

// DepBuckets is the number of log2 buckets in the dependence-distance
// histogram: bucket b counts consumed source operands whose producer ran
// floor(log2(dist))==b dynamic instructions earlier (bucket 15 collects
// everything ≥ 2^15).
const DepBuckets = 16

// ReuseBuckets is the number of log2 buckets in the memory reuse-distance
// histogram: bucket b counts references whose LRU stack distance — the
// number of distinct 32-byte lines touched since the previous access to
// the same line — has floor(log2)==b. Stack distances are exact (Fenwick
// tree over last-access times), so the tail past a cache's line count is
// that fully-associative cache's miss count.
const ReuseBuckets = 24

// ClusterCounts are the cluster counts the steering twin is profiled at.
// Model evaluations at other counts interpolate between the nearest two.
var ClusterCounts = []int{2, 4, 8, 16}

// SteerProfile is the communication behaviour of the lightweight steering
// twin at one cluster count: how many consumed operands lived outside the
// consumer's cluster, and the forward ring distance each such value had
// to travel. Backward distances (the conventional machine's second bus
// direction) are derivable: a forward distance d is a backward distance
// clusters-d.
type SteerProfile struct {
	Clusters int `json:"clusters"`
	// Comms counts source operands that needed an inter-cluster
	// communication.
	Comms uint64 `json:"comms"`
	// Hops[d-1] counts communications at forward distance d (1..C-1).
	Hops []uint64 `json:"hops"`
}

// MeanForwardHops is the mean forward ring distance per communication.
func (s *SteerProfile) MeanForwardHops() float64 {
	if s.Comms == 0 {
		return 0
	}
	var total uint64
	for i, c := range s.Hops {
		total += uint64(i+1) * c
	}
	return float64(total) / float64(s.Comms)
}

// MeanMinHops is the mean distance per communication when both ring
// directions are available (the conventional machine with two buses):
// each communication travels min(d, C-d).
func (s *SteerProfile) MeanMinHops() float64 {
	if s.Comms == 0 {
		return 0
	}
	var total uint64
	for i, c := range s.Hops {
		d := i + 1
		if back := s.Clusters - d; back < d {
			d = back
		}
		total += uint64(d) * c
	}
	return float64(total) / float64(s.Comms)
}

// ExtraHops returns the communication rate and mean hop count of the
// ring machine's bus traffic: distance-1 values arrive over the
// staggered writeback ring for free, so only longer transfers occupy a
// bus, each for d-1 hops. Returns (bus comms, mean extra hops).
func (s *SteerProfile) ExtraHops() (uint64, float64) {
	var comms, total uint64
	for i, c := range s.Hops {
		if i == 0 {
			continue // distance 1: delivered by the writeback ring
		}
		comms += c
		total += uint64(i) * c // d-1 hops
	}
	if comms == 0 {
		return 0, 0
	}
	return comms, float64(total) / float64(comms)
}

// Profile is the content-addressed trace summary the analytical twin
// scores configurations from. All counters cover exactly the first Insts
// instructions of (Program, Seed); equal triples produce byte-identical
// profiles.
type Profile struct {
	Schema  string `json:"schema"`
	Program string `json:"program"`
	Seed    uint64 `json:"seed,omitempty"`
	Insts   uint64 `json:"insts"`

	// Classes is the instruction mix by isa.Class.
	Classes [isa.NumClasses]uint64 `json:"classes"`

	// Branch behaviour: counts plus the mispredicts of the paper's
	// hybrid gshare/bimodal predictor model (bpred.DefaultConfig)
	// replayed over the branch stream in commit order.
	Branches    uint64 `json:"branches"`
	Taken       uint64 `json:"taken"`
	Mispredicts uint64 `json:"mispredicts"`

	// Dependence structure: DepDist histograms the dynamic distance from
	// each consumed source operand to its producer; CritPath is the
	// dataflow critical path in cycles under Table-2 latencies with
	// L1-hit loads and infinite resources — the trace's ILP limit.
	DepOperands uint64             `json:"dep_operands"`
	DepDist     [DepBuckets]uint64 `json:"dep_dist"`
	CritPath    uint64             `json:"crit_path"`

	// Memory behaviour: LRU stack-distance histogram over 32-byte lines
	// (distinct lines between reuses), distinct-line counts and the
	// touched address range. AddrChain counts references whose address
	// register was produced by a load — the pointer-chasing signal that
	// serializes misses and kills memory-level parallelism.
	MemRefs   uint64               `json:"mem_refs"`
	AddrChain uint64               `json:"addr_chain,omitempty"`
	ColdLines uint64               `json:"cold_lines"`
	Lines64   uint64               `json:"lines64"`
	AddrLo    uint64               `json:"addr_lo,omitempty"`
	AddrHi    uint64               `json:"addr_hi,omitempty"`
	Reuse     [ReuseBuckets]uint64 `json:"reuse"`

	// Ring and Conv are the steering-twin communication profiles per
	// cluster count (ClusterCounts order) for the two architectures.
	Ring []SteerProfile `json:"ring"`
	Conv []SteerProfile `json:"conv"`
}

// Key returns the profile cache content key for a (program, seed, insts)
// triple: a SHA-256 over the identifying tuple, in the same spirit as run
// keys — equal workloads share profiles fleet-wide.
func Key(program string, seed, insts uint64) string {
	h := sha256.Sum256(fmt.Appendf(nil, "%s|%s|%d|%d", SchemaV1, program, seed, insts))
	return hex.EncodeToString(h[:])
}

// Key returns the profile's own content key.
func (p *Profile) Key() string { return Key(p.Program, p.Seed, p.Insts) }

// Encode marshals the profile (indented, trailing newline) for the disk
// cache layer.
func (p *Profile) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode unmarshals a profile and checks its schema.
func Decode(b []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, err
	}
	if p.Schema != SchemaV1 {
		return nil, fmt.Errorf("predict: profile schema %q (want %s)", p.Schema, SchemaV1)
	}
	return &p, nil
}

// MispredictRate returns modelled mispredicts per branch.
func (p *Profile) MispredictRate() float64 {
	if p.Branches == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Branches)
}

// steerState is one (architecture, cluster count) steering twin: a
// value-home table per architectural register plus a windowed per-cluster
// load counter approximating the machine's balance pressure (the ring
// policy's free-register tie-break, DCOUNT for the conventional machine).
// Following operands keeps chains local; the balance term diverts
// assignments off overloaded clusters, which is where the conventional
// machine pays communications the ring machine's rotating result homes
// avoid.
//
// minLoad and minIdx are the smallest load counter and the first cluster
// holding it, kept up to date instead of scanned for on every instruction.
// Charging any other cluster cannot move the first minimum; charging
// minIdx moves it forward (bumpMin), and only the window's halving, which
// can tie clusters ahead of minIdx, rescans all counters.
type steerState struct {
	clusters int
	ring     bool                       // ring: results land in the next cluster's register file
	home     [2 * isa.NumArchRegs]uint8 // by namespace*32 + index
	load     [16]uint32
	minLoad  uint32
	minIdx   int
	// hops[d] counts operands consumed at forward distance d; hops[0]
	// counts those that needed no communication.
	hops [16]uint64
}

// steerWindow is the balance decay period: every steerWindow
// instructions the per-cluster load counters halve, so pressure reflects
// the recent past like an occupancy count, not all history.
const steerWindow = 64

// steerBalance converts load imbalance into hop-equivalent cost: a
// cluster steerBalance assignments busier than the idlest one looks one
// forward hop worse to the steering choice.
const steerBalance = 8

// Summarizer accumulates a Profile one instruction at a time. Feed every
// instruction of the stream in order via Observe, then call Finish once.
// The zero value is not usable; construct with NewSummarizer.
type Summarizer struct {
	p    Profile
	pred *bpred.Predictor

	idx       uint64                     // dynamic instruction index (1-based after Observe)
	lastDef   [2][isa.NumArchRegs]uint64 // producer index per register, 0 = none
	ready     [2][isa.NumArchRegs]uint64 // dataflow completion cycle per register
	defByLoad [2][isa.NumArchRegs]bool   // register last written by a load
	critPath  uint64

	refIdx   uint64            // memory reference index
	lastRef  map[uint64]uint64 // 32B line -> last reference index (1-based)
	fenwick  [][]uint64        // marks at last-access indices, for stack distances, fenwickChunk nodes a chunk
	nodes    uint64            // Fenwick nodes held, slot 0 unused
	haveAddr bool

	steer []steerState
}

// fenwickChunk is how many Fenwick nodes one allocation holds: 32 KiB,
// Go's largest small size class. The tree grows a chunk at a time and is
// never copied. Grown as one slice, its reallocations came to four times
// its final size, half of what building a profile allocated, and
// explore_funnel reaches its peak RSS while its profiles build.
const fenwickChunk = 1 << 12

// node returns Fenwick node i.
func (s *Summarizer) node(i uint64) *uint64 {
	return &s.fenwick[i/fenwickChunk][i%fenwickChunk]
}

// fenwickAdd adds delta at 1-based index i.
func (s *Summarizer) fenwickAdd(i uint64, delta uint64) {
	for ; i < s.nodes; i += i & (^i + 1) {
		*s.node(i) += delta
	}
}

// fenwickSum sums marks in [1, i].
func (s *Summarizer) fenwickSum(i uint64) uint64 {
	var t uint64
	for ; i > 0; i -= i & (^i + 1) {
		t += *s.node(i)
	}
	return t
}

// growFenwick extends the tree through index n. A new node covers
// (k-lowbit(k), k], so it is seeded with the marks already in that range
// (marks move backwards when lines are re-referenced, so the range can be
// non-empty even for a fresh index): the sum of the nodes that tile
// (k-lowbit(k), k-1], which are k-1, k-1-lowbit(k-1) and so on — on
// average one node, where two prefix sums walk the tree's height.
func (s *Summarizer) growFenwick(n uint64) {
	for ; s.nodes <= n; s.nodes++ {
		k := s.nodes
		if k%fenwickChunk == 0 {
			s.fenwick = append(s.fenwick, make([]uint64, fenwickChunk))
		}
		var v uint64
		for j := k - 1; j > k-(k&(^k+1)); j -= j & (^j + 1) {
			v += *s.node(j)
		}
		*s.node(k) = v
	}
}

// loadLatency is the dataflow-pass latency of a load: address generation
// plus the cluster transit and L1D hit time of the default hierarchy.
const loadLatency = 4

// NewSummarizer returns a Summarizer for one stream identified by the
// canonical program name and seed override.
func NewSummarizer(program string, seed uint64) *Summarizer {
	s := &Summarizer{
		pred:    bpred.New(bpred.DefaultConfig()),
		lastRef: make(map[uint64]uint64),
		fenwick: [][]uint64{make([]uint64, fenwickChunk)},
		nodes:   1, // slot 0 unused
	}
	s.p.Schema = SchemaV1
	s.p.Program = program
	s.p.Seed = seed
	for _, c := range ClusterCounts {
		s.steer = append(s.steer, steerState{clusters: c, ring: true})
	}
	for _, c := range ClusterCounts {
		s.steer = append(s.steer, steerState{clusters: c, ring: false})
	}
	return s
}

// Observe accumulates one instruction.
func (s *Summarizer) Observe(in *isa.Inst) {
	s.idx++
	p := &s.p
	p.Insts++
	p.Classes[in.Class]++

	// Branch behaviour through the paper's own predictor model, trained
	// in order like the machine trains at commit.
	if in.Class == isa.Branch {
		p.Branches++
		if in.Taken {
			p.Taken++
		}
		if s.pred.Update(in.PC, in.Taken, in.Target) {
			p.Mispredicts++
		}
	}

	// Dependence distances and the dataflow critical path.
	var buf [2]isa.Reg
	srcs := in.SrcRegs(&buf)
	var ready uint64
	for _, r := range srcs {
		if def := s.lastDef[r.Kind][r.Idx]; def != 0 {
			p.DepOperands++
			p.DepDist[logBucket(s.idx-def, DepBuckets)]++
		}
		if t := s.ready[r.Kind][r.Idx]; t > ready {
			ready = t
		}
	}
	lat := uint64(in.Class.Latency())
	if in.Class == isa.Load {
		lat = loadLatency
	}
	done := ready + lat
	if in.Class.IsMem() {
		for _, r := range srcs {
			if s.defByLoad[r.Kind][r.Idx] {
				p.AddrChain++
				break
			}
		}
	}
	if in.WritesReg() {
		s.lastDef[in.Dest.Kind][in.Dest.Idx] = s.idx
		s.ready[in.Dest.Kind][in.Dest.Idx] = done
		s.defByLoad[in.Dest.Kind][in.Dest.Idx] = in.Class == isa.Load
	}
	if done > s.critPath {
		s.critPath = done
	}

	// Exact LRU stack distances over 32-byte (L1D) lines: each line keeps
	// one Fenwick-tree mark at its last-access index, so the number of
	// distinct lines touched since a line's previous access is the mark
	// count past that index.
	if in.Class.IsMem() {
		s.refIdx++
		p.MemRefs++
		line := in.EffAddr >> 5
		s.growFenwick(s.refIdx)
		if last, ok := s.lastRef[line]; ok {
			dist := uint64(len(s.lastRef)) - s.fenwickSum(last)
			p.Reuse[logBucket(dist+1, ReuseBuckets)]++
			s.fenwickAdd(last, ^uint64(0)) // move the mark: -1 at the old index
		} else {
			p.ColdLines++
		}
		s.fenwickAdd(s.refIdx, 1)
		s.lastRef[line] = s.refIdx
		if !s.haveAddr {
			p.AddrLo, p.AddrHi = in.EffAddr, in.EffAddr
			s.haveAddr = true
		} else {
			if in.EffAddr < p.AddrLo {
				p.AddrLo = in.EffAddr
			}
			if in.EffAddr > p.AddrHi {
				p.AddrHi = in.EffAddr
			}
		}
	}

	// Steering twins: mimic dependence-based cluster assignment for each
	// (architecture, cluster count) pair and record every inter-cluster
	// value movement with its forward ring distance.
	var reg, live [2]int
	for i, r := range srcs {
		reg[i], live[i] = int(r.Kind)*isa.NumArchRegs+int(r.Idx), -1
	}
	dest, writes := int(in.Dest.Kind)*isa.NumArchRegs+int(in.Dest.Idx), in.WritesReg()
	if s.idx%steerWindow == 0 {
		for i := range s.steer {
			s.steer[i].halve()
		}
	}
	for i := range s.steer {
		s.steer[i].observe(reg[0], reg[1], live[0], live[1], dest, writes)
	}
}

// observe advances one steering twin by one instruction: choose the
// cluster minimizing communication hops weighted against recent load
// imbalance, charge a communication for every operand living elsewhere,
// and place the result (ring: next cluster's register file). The operands
// arrive as flat register indices (namespace*32 + index) with live masks,
// all ones for an operand present and zero for a missing one; the result
// register is dest when writes is set.
func (st *steerState) observe(r0, r1, live0, live1, dest int, writes bool) {
	c := st.clusters
	// Candidates, in order: the operands' home clusters, then the idlest
	// cluster. Cost is forward comm distance (in hop-equivalents) plus
	// balance pressure; the first candidate at the lowest cost wins, so
	// the choice is deterministic. A missing operand's home reads as the
	// idlest cluster and its distances as zero, so it never wins ahead of
	// a real candidate. A candidate's own operand costs nothing (fwd(h, h)
	// is 0), and the idlest cluster carries no balance term.
	// Indices are masked to their arrays' sizes, which they never reach,
	// so the compiler drops the bounds checks.
	m := st.minIdx
	h0 := int(st.home[r0&63])&live0 | m&^live0
	h1 := int(st.home[r1&63])&live1 | m&^live1
	cost0 := uint32(fwd(h1, h0, c)&live1)*steerBalance + st.load[h0&15] - st.minLoad
	cost1 := uint32(fwd(h0, h1, c)&live0)*steerBalance + st.load[h1&15] - st.minLoad
	cost2 := uint32(fwd(h0, m, c)&live0+fwd(h1, m, c)&live1) * steerBalance
	// The choice is made with masks: costs are data, and a branch on them
	// mispredicts.
	lt := less(cost1, cost0)
	chosen, best := h0&^lt|h1&lt, cost0&^uint32(lt)|cost1&uint32(lt)
	lt = less(cost2, best)
	chosen = chosen&^lt | m&lt
	// hops[0] takes the operands that needed no communication.
	st.hops[fwd(h0, chosen, c)&live0&15]++
	st.hops[fwd(h1, chosen, c)&live1&15]++
	if chosen == m {
		st.bumpMin()
	} else {
		st.load[chosen&15]++
	}
	if writes {
		if st.ring {
			if chosen++; chosen == c {
				chosen = 0
			}
		}
		st.home[dest&63] = uint8(chosen)
	}
}

// halve decays the load counters at the end of a balance window and
// rescans them for minLoad and minIdx.
func (st *steerState) halve() {
	load := st.load[:st.clusters]
	for i := range load {
		load[i] >>= 1
	}
	m := load[0]
	for _, v := range load[1:] {
		m = min(m, v)
	}
	i := 0
	for load[i] != m {
		i++
	}
	st.minLoad, st.minIdx = m, i
}

// bumpMin charges one assignment to minIdx. The first minimum moves to
// the next cluster still at minLoad (every cluster before minIdx is above
// it), or, when none is left, to the first cluster at minLoad+1.
func (st *steerState) bumpMin() {
	load := st.load[:st.clusters]
	i := st.minIdx
	load[i]++
	for j := i + 1; j < len(load); j++ {
		if load[j] == st.minLoad {
			st.minIdx = j
			return
		}
	}
	st.minLoad++
	j := 0
	for load[j] != st.minLoad {
		j++
	}
	st.minIdx = j
}

// less is all ones when a < b and zero otherwise, for a and b below 2^31.
func less(a, b uint32) int { return int(int32(a-b) >> 31) }

// fwd is the forward ring distance from cluster a to cluster b, both in
// [0, n): b−a, wrapped once when negative.
func fwd(a, b, n int) int {
	d := b - a
	return d + n&(d>>63)
}

// Finish seals the summary and returns the profile. The profile does not
// reference the Summarizer, so keeping it does not keep the summarizer's
// line map, Fenwick tree and predictor alive. The Summarizer must not be
// used afterwards.
func (s *Summarizer) Finish() *Profile {
	p := s.p
	p.CritPath = max(s.critPath, 1)
	p.Lines64 = lines64(s.lastRef)
	for i := range s.steer {
		st := &s.steer[i]
		sp := SteerProfile{Clusters: st.clusters, Hops: slices.Clone(st.hops[1:st.clusters])}
		for _, n := range sp.Hops {
			sp.Comms += n
		}
		if st.ring {
			p.Ring = append(p.Ring, sp)
		} else {
			p.Conv = append(p.Conv, sp)
		}
	}
	return &p
}

// lines64 counts the distinct 64-byte lines among the touched 32-byte
// lines: a 64-byte line was touched iff one of its halves was, so each is
// counted once, at its even half or — when only the odd half was touched —
// at the odd one.
func lines64(lines32 map[uint64]uint64) uint64 {
	var n uint64
	for l := range lines32 {
		if l&1 == 0 {
			n++
		} else if _, even := lines32[l^1]; !even {
			n++
		}
	}
	return n
}

// logBucket buckets v >= 1 by floor(log2), saturating at max-1.
func logBucket(v uint64, max int) int {
	b := bits.Len64(v) - 1
	if b >= max {
		return max - 1
	}
	return b
}

// Summarize drains up to n instructions from the stream (0 = all) and
// returns the finished profile.
func Summarize(program string, seed uint64, s trace.Stream, n uint64) (*Profile, error) {
	sum := NewSummarizer(program, seed)
	for i := uint64(0); n == 0 || i < n; i++ {
		in, err := s.Next()
		if errors.Is(err, trace.ErrEnd) {
			break
		}
		if err != nil {
			return nil, err
		}
		sum.Observe(&in)
	}
	return sum.Finish(), nil
}
