package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/regfile"
	"repro/internal/steering"
	"repro/internal/trace"
)

// robState tracks an instruction's back-end progress.
type robState uint8

const (
	robWaiting robState = iota // in an issue queue
	robIssued                  // executing
	robDone                    // completed, awaiting commit
)

// robEntry is one in-flight instruction. Kept lean: fields the back end
// never reads (PC, branch direction/target — resolved at fetch in this
// trace-driven model) stay in the fetch queue and are not carried along.
type robEntry struct {
	seq     uint64
	class   isa.Class
	cluster int8
	state   robState
	stream  uint8

	numSrcs  int8
	srcVals  [2]valueID
	destVal  valueID
	prevVal  valueID
	destKind isa.RegFileKind

	// wakeup bookkeeping: waitSrcs counts sources whose availability
	// cycle in this entry's cluster is still unknown; readyAt is the
	// latest known availability cycle over the resolved sources. When
	// waitSrcs reaches zero the entry is scheduled into the issue
	// calendar at readyAt and never re-examined before then.
	waitSrcs int8
	readyAt  uint64

	// memory
	effAddr uint64
	hasLSQ  bool
	lsqIdx  uint64
	// hasDep marks a load whose nearest older same-address store was
	// identified at dispatch (depLSQ); issue then checks that single
	// entry instead of rescanning the LSQ every attempt.
	hasDep bool
	depLSQ uint64

	// branch
	mispredict bool
}

// fetchEntry is one decoded instruction in the fetch/decode queue: just
// the fields the back end consumes, not the full trace record (branch
// direction and target are resolved at fetch in this trace-driven model,
// and the PC only feeds the predictor and I-cache there).
type fetchEntry struct {
	seq        uint64
	effAddr    uint64
	readyAt    uint64 // earliest dispatch cycle (decode + steer latency)
	src        [2]isa.Reg
	dest       isa.Reg
	class      isa.Class
	numSrcs    uint8
	writesReg  bool
	mispredict bool
	stream     uint8
}

// lsqEntry is one memory operation in the load/store queue.
type lsqEntry struct {
	robIdx  uint64
	addr    uint64
	isStore bool
	issued  bool
}

// commEntry is one dynamically generated communication instruction,
// waiting in the comm queue of its source cluster.
type commEntry struct {
	val        valueID
	src, dst   int8
	readySince uint64 // first cycle observed ready (0 = not yet ready)
	haveReady  bool
	// eligibleAt is the cycle the value becomes readable in the source
	// cluster (neverAvail while unknown; stamped by the value wakeup).
	// The per-cycle bus arbitration scan tests this single field instead
	// of dereferencing the value table.
	eligibleAt uint64
}

// execEvent is a scheduled completion.
type execEvent struct {
	robIdx uint64
	cycle  uint64
}

// iqSide is one cluster's issue buffer for one datapath side. Occupancy
// (count) covers both the entries still waiting for operands — tracked
// through value wakeup lists and the issue calendar, never scanned — and
// the operand-ready entries in the ready list, kept sorted oldest-first.
type iqSide struct {
	cap   int
	count int
	ready []uint64 // ROB indices, ascending (program order)
}

// insertReady adds a ROB index to the ready list, keeping it sorted. A
// woken entry may be older than entries already ready, so this is a
// sorted insert, not an append; the list is small (bounded by cap).
func (q *iqSide) insertReady(idx uint64) {
	r := q.ready
	lo, hi := 0, len(r)
	for lo < hi {
		mid := (lo + hi) / 2
		if r[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r = append(r, 0)
	copy(r[lo+1:], r[lo:])
	r[lo] = idx
	q.ready = r
}

// removeReady deletes the i-th ready entry, preserving order.
func (q *iqSide) removeReady(i int) {
	copy(q.ready[i:], q.ready[i+1:])
	q.ready = q.ready[:len(q.ready)-1]
}

// eventHorizon is the completion calendar depth; it must exceed the
// longest execution latency (an L2 miss plus transit is ~120 cycles) and
// the bus reservation window (a scheduled wakeup is at most a full-ring
// transit away).
const eventHorizon = 512

// MaxStreams is how many independent instruction streams one machine can
// run concurrently (multi-programmed mode). Kept in sync with
// workload.MaxStreams.
const MaxStreams = 8

// streamAddrStride separates the streams' address spaces: stream i's PCs
// and data addresses are offset by i·2^44, far above any generated
// address, so independent programs never alias in the store-forwarding
// map and collide in the shared predictor and caches only the way
// distinct address spaces legitimately do (index bits). Stream 0's offset
// is zero, keeping single-stream runs bit-identical to the
// pre-multiprogramming machine.
const streamAddrStride = uint64(1) << 44

// streamFE is the per-stream front-end state: the stream being fetched
// and everything the fetch stage tracks about it. One machine owns one
// streamFE per workload stream; the per-cycle ICOUNT arbitration picks
// which of them fetches.
type streamFE struct {
	stream trace.Stream
	// replay is set when stream is a materialized *trace.Replay; the
	// front end then reads each record through the cursor's NextRec
	// instead of decoding it into an isa.Inst through the Stream interface.
	replay *trace.Replay
	// off is the stream's address-space offset (streamAddrStride × index).
	off uint64

	pendingRec    trace.Rec // fetched but not yet enqueued (stall overflow)
	pendingSeq    uint64
	scratchRec    trace.Rec // staging buffer for interface-stream fetches
	havePending   bool
	fetchBlocked  bool // waiting for a mispredicted branch to resolve
	fetchResumeAt uint64
	lastFetchLine uint64
	haveFetchLine bool
	streamDone    bool

	// inFlight counts this stream's instructions between fetch and
	// commit — the ICOUNT the fetch arbitration minimizes.
	inFlight uint64
}

// Machine is one simulated processor. Construct with New, drive with Run
// (or Step for tests). A machine can be recycled across runs with Reset,
// which reuses every internal allocation it can. Not safe for concurrent
// use; run one Machine per goroutine.
type Machine struct {
	cfg             Config
	statelessChoose bool
	// fes holds one front end per workload stream; single-program runs
	// have exactly one. oneStream backs the single-stream Reset path so
	// recycling a pooled machine stays allocation-free.
	fes       []streamFE
	oneStream [1]trace.Stream
	alg       steering.Algorithm
	files     *regfile.Files
	fabric    *interconnect.Fabric
	pred      *bpred.Predictor
	mem       *cache.Hierarchy

	vals      valueTable
	renameMap [2][isa.NumArchRegs]valueID

	// minDist caches fabric.MinDistances() (n×n, row-major by source);
	// visTable[c] caches visibleCluster(c). Both are per-operand lookups
	// on the dispatch path.
	minDist  []int8
	visTable [regfile.MaxClusters]int8

	rob    *queue.Ring[robEntry]
	fetchQ *queue.Ring[fetchEntry]
	lsq    *queue.Ring[lsqEntry]
	// lastStore maps a data address to the LSQ index of the youngest
	// store to it, so load dispatch finds its forwarding dependency in
	// one lookup (entries go stale when the store commits; liveness is
	// re-checked against lsq.Head()).
	lastStore map[uint64]uint64
	iqInt     []iqSide // per cluster
	iqFP      []iqSide
	// readyCount is the total entries across all ready lists; a cycle
	// with nothing ready (and no wakeups due) skips the issue pass.
	// readyMaskInt/FP track which clusters have a non-empty ready list,
	// so the pass visits only those.
	readyCount   int
	readyMaskInt uint32
	readyMaskFP  uint32
	commQ        []*queue.Bounded[commEntry]
	// commNextEligible[c] is a lower bound on the earliest eligibility
	// cycle of any entry in commQ[c] (neverAvail when empty); bus
	// arbitration skips the cluster's scan entirely while it lies in the
	// future. Pushes and wakeup stamps lower it; a completed scan
	// tightens it. commGlobalEligible is the minimum over clusters, so a
	// cycle with no eligible communication anywhere skips the whole
	// arbitration pass.
	commNextEligible   []uint64
	commGlobalEligible uint64

	events [eventHorizon][]execEvent
	// iqCal is the issue-readiness calendar: slot c%eventHorizon holds
	// the ROB indices whose operands all become readable at cycle c.
	iqCal [eventHorizon][]uint64

	// multDivBusyUntil[c][side][unit]: the mult/div units (divides are
	// non-pipelined and occupy their unit to completion).
	multDivBusyUntil [regfile.MaxClusters][2][4]uint64

	now uint64

	// steerReq is the per-dispatch steering request, kept on the machine
	// so the interface call does not force a heap allocation per
	// instruction.
	steerReq steering.Request

	// front-end state shared across streams (per-stream state lives in
	// fes).
	lineShift      uint // log2(L1I line size), fixed at construction
	lastCommitAt   uint64
	dcachePortsUse int
	err            error // fatal stream error
	// fetchStop suspends the fetch stage while the sampled-execution
	// drain empties the pipeline (see DrainPipeline); it is never set on
	// the exact path, so normal runs are untouched.
	fetchStop bool
	// ffInsts counts instructions consumed by FunctionalAdvance since the
	// last Reset — kept outside Stats so exact-run stats stay bit-identical.
	ffInsts uint64
	// ffMix holds the per-stream fast-forward interleave weights (see
	// SetFFMix); empty means uniform.
	ffMix []uint64
	// cov accumulates the sampling covariates (see Covariates); both
	// execution modes update it, only the sampled harness reads it.
	cov Covariates

	stats Stats
	// streamStats holds the per-stream counters; Stats() attaches a copy
	// for multi-stream runs.
	streamStats []StreamStats
	statsBase   uint64 // cycle at the last ResetStats
}

// New builds a machine over the given instruction stream. The steering
// algorithm is chosen from cfg (Ring/Conv × enhanced/SSA).
func New(cfg Config, stream trace.Stream) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg, stream); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMulti builds a machine running the given independent instruction
// streams concurrently (multi-programmed mode): each stream gets its own
// address-space offset and front-end state, and fetch arbitrates between
// them by ICOUNT. One stream is exactly New.
func NewMulti(cfg Config, streams []trace.Stream) (*Machine, error) {
	m := &Machine{}
	if err := m.ResetMulti(cfg, streams); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset rebuilds the machine for a fresh single-stream run of cfg over
// stream, reusing the previous run's allocations wherever the
// configuration allows. A reset machine is observationally identical to
// one built with New — the recycled slabs carry no state across runs.
func (m *Machine) Reset(cfg Config, stream trace.Stream) error {
	m.oneStream[0] = stream
	return m.ResetMulti(cfg, m.oneStream[:])
}

// DropStreams forgets the machine's instruction streams, so an idle
// machine kept for reuse does not keep its last run's traces reachable.
// The machine must be Reset before it runs again.
func (m *Machine) DropStreams() {
	clear(m.fes[:cap(m.fes)])
	m.oneStream[0] = nil
}

// ResetMulti is Reset over one machine and N concurrent streams.
func (m *Machine) ResetMulti(cfg Config, streams []trace.Stream) error {
	if len(streams) == 0 {
		return fmt.Errorf("core: machine needs at least one stream")
	}
	if len(streams) > MaxStreams {
		return fmt.Errorf("core: %d streams exceeds MaxStreams (%d)", len(streams), MaxStreams)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.cfg = cfg
	if cap(m.fes) < len(streams) {
		m.fes = make([]streamFE, len(streams))
	}
	m.fes = m.fes[:len(streams)]
	for i := range m.fes {
		fe := &m.fes[i]
		*fe = streamFE{stream: streams[i], off: uint64(i) * streamAddrStride}
		fe.replay, _ = streams[i].(*trace.Replay)
	}
	if cap(m.streamStats) < len(streams) {
		m.streamStats = make([]StreamStats, len(streams))
	}
	m.streamStats = m.streamStats[:len(streams)]
	for i := range m.streamStats {
		m.streamStats[i] = StreamStats{}
	}

	if m.files == nil {
		m.files = regfile.New(cfg.Clusters, cfg.RegsInt, cfg.RegsFP)
	} else {
		m.files.Reset(cfg.Clusters, cfg.RegsInt, cfg.RegsFP)
	}
	if m.pred == nil {
		m.pred = bpred.New(cfg.Bpred)
	} else {
		m.pred.Reset(cfg.Bpred)
	}
	if m.mem == nil {
		m.mem = cache.NewHierarchy(cfg.Mem)
	} else {
		m.mem.Reset(cfg.Mem)
	}
	m.rob = queue.ResetRing(m.rob, cfg.ROBSize)
	m.fetchQ = queue.ResetRing(m.fetchQ, cfg.FetchQSize)
	m.lsq = queue.ResetRing(m.lsq, cfg.LSQSize)
	if m.lastStore == nil {
		m.lastStore = make(map[uint64]uint64, 1024)
	} else {
		clear(m.lastStore)
	}

	// Ring runs all buses forward; Conv's second bus runs backward
	// (Section 4.2).
	opposed := cfg.Arch == ArchConv
	if m.fabric == nil || !m.fabric.Reset(cfg.Clusters, cfg.Buses, cfg.HopLatency, opposed) {
		m.fabric = interconnect.NewFabric(cfg.Clusters, cfg.Buses, cfg.HopLatency, opposed)
	}
	m.minDist = m.fabric.MinDistances()
	for c := 0; c < cfg.Clusters; c++ {
		vc := c
		if cfg.Arch == ArchRing {
			vc = (c + 1) % cfg.Clusters
		}
		m.visTable[c] = int8(vc)
	}

	switch {
	case cfg.Steer == SteerSimple:
		m.alg = steering.NewSSA(cfg.Clusters)
	case cfg.Arch == ArchRing:
		m.alg = steering.NewRing()
	default:
		m.alg = steering.NewConv(cfg.Clusters, cfg.Conv)
	}
	// Ring and Conv choices are pure functions of machine state; SSA
	// mutates its round-robin counter inside Choose, which constrains the
	// dispatch stall-check order (see dispatch).
	m.statelessChoose = cfg.Steer != SteerSimple
	if p, ok := m.alg.(steering.GeometryPrimer); ok {
		p.PrimeGeometry(steering.PrimeTables(cfg.Clusters, m.minDist), m.files, m.visTable[:cfg.Clusters])
	}

	m.iqInt = resetSides(m.iqInt, cfg.Clusters, cfg.IQInt)
	m.iqFP = resetSides(m.iqFP, cfg.Clusters, cfg.IQFP)
	m.readyCount = 0
	m.readyMaskInt, m.readyMaskFP = 0, 0
	m.vals.clusters = cfg.Clusters
	if cap(m.commQ) < cfg.Clusters {
		m.commQ = make([]*queue.Bounded[commEntry], cfg.Clusters)
	}
	m.commQ = m.commQ[:cfg.Clusters]
	for c := 0; c < cfg.Clusters; c++ {
		if m.commQ[c] == nil || m.commQ[c].Cap() != cfg.IQComm {
			m.commQ[c] = queue.NewBounded[commEntry](cfg.IQComm)
		} else {
			m.commQ[c].Clear()
		}
	}
	if cap(m.commNextEligible) < cfg.Clusters {
		m.commNextEligible = make([]uint64, cfg.Clusters)
	}
	m.commNextEligible = m.commNextEligible[:cfg.Clusters]
	for c := range m.commNextEligible {
		m.commNextEligible[c] = neverAvail
	}
	m.commGlobalEligible = neverAvail

	for i := range m.events {
		if cap(m.events[i]) == 0 {
			m.events[i] = make([]execEvent, 0, 8)
		}
		m.events[i] = m.events[i][:0]
	}
	for i := range m.iqCal {
		if cap(m.iqCal[i]) == 0 {
			m.iqCal[i] = make([]uint64, 0, 8)
		}
		m.iqCal[i] = m.iqCal[i][:0]
	}
	m.multDivBusyUntil = [regfile.MaxClusters][2][4]uint64{}
	m.now = 0
	m.steerReq = steering.Request{}
	m.lineShift = uint(bits.TrailingZeros64(uint64(cfg.Mem.L1I.LineBytes)))
	m.lastCommitAt = 0
	m.dcachePortsUse = 0
	m.fetchStop = false
	m.ffInsts = 0
	m.ffMix = m.ffMix[:0]
	m.cov = Covariates{}
	m.err = nil
	m.stats = Stats{}
	m.statsBase = 0

	// Architectural live-in values: the initial architected state is
	// distributed round-robin across the cluster register files, each
	// value readable in its home cluster from cycle 0. Consumers in
	// other clusters fetch copies over the buses like any other value.
	// Initial values occupy no simulated physical registers (the
	// architected state is the baseline the files are sized above);
	// copies made for communications are accounted normally.
	m.vals.reset()
	for kind := 0; kind < 2; kind++ {
		for r := 0; r < isa.NumArchRegs; r++ {
			id := m.vals.alloc(isa.RegFileKind(kind))
			v := m.vals.get(id)
			v.produced = true
			home := r % cfg.Clusters
			v.copyMask = 1 << uint(home)
			v.avail[home] = 0
			v.home = int8(home)
			m.renameMap[kind][r] = id
		}
	}
	return nil
}

// resetSides sizes per-cluster issue sides, reusing ready-list slabs.
func resetSides(sides []iqSide, clusters, capacity int) []iqSide {
	if cap(sides) < clusters {
		sides = make([]iqSide, clusters)
	}
	sides = sides[:clusters]
	for c := range sides {
		ready := sides[c].ready
		if cap(ready) < capacity {
			ready = make([]uint64, 0, capacity)
		}
		sides[c] = iqSide{cap: capacity, ready: ready[:0]}
	}
	return sides
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns a copy of the statistics gathered so far. Multi-stream
// machines additionally attach the per-stream breakdown (single-stream
// machines leave it nil: the totals are the stream).
func (m *Machine) Stats() Stats {
	s := m.stats
	if len(m.fes) > 1 {
		s.PerStream = append([]StreamStats(nil), m.streamStats...)
	}
	return s
}

// Committed returns the committed-instruction total without copying the
// stats (the warm-up loop polls it every step).
func (m *Machine) Committed() uint64 { return m.stats.Committed }

// NumStreams returns how many workload streams the machine is running.
func (m *Machine) NumStreams() int { return len(m.fes) }

// ResetStats zeroes the statistics counters without disturbing the
// machine's microarchitectural state. Use it to exclude a warm-up window
// from measurement.
func (m *Machine) ResetStats() {
	m.stats = Stats{}
	for i := range m.streamStats {
		m.streamStats[i] = StreamStats{}
	}
	m.statsBase = m.now
}

// Now returns the current cycle.
func (m *Machine) Now() uint64 { return m.now }

// Fabric exposes the interconnect (for stats inspection).
func (m *Machine) Fabric() *interconnect.Fabric { return m.fabric }

// Mem exposes the memory hierarchy (for stats inspection).
func (m *Machine) Mem() *cache.Hierarchy { return m.mem }

// Predictor exposes the branch predictor (for stats inspection).
func (m *Machine) Predictor() *bpred.Predictor { return m.pred }

// --- steering.View implementation ---

// NumClusters implements steering.View.
func (m *Machine) NumClusters() int { return m.cfg.Clusters }

// FreeRegs implements steering.View: the free destination registers
// available to an instruction steered to cluster c. On the ring machine an
// instruction steered to c writes the register file of cluster c+1
// ("written from the previous cluster in the ring", Section 3), so that is
// the file whose pressure the steering tie-break must consult.
func (m *Machine) FreeRegs(c int, kind isa.RegFileKind) int {
	return m.files.Free(int(m.visTable[c]), kind)
}

// CommDistance implements steering.View.
func (m *Machine) CommDistance(src, dst int) int {
	return int(m.minDist[src*m.cfg.Clusters+dst])
}

// visibleCluster returns the cluster whose register file receives the
// result of an instruction executing in cluster c: the next cluster on the
// ring machine, the same cluster on the conventional one.
func (m *Machine) visibleCluster(c int) int {
	return int(m.visTable[c])
}

// schedule registers a completion event for the given ROB entry.
func (m *Machine) schedule(robIdx, cycle uint64) {
	if cycle <= m.now || cycle-m.now >= eventHorizon {
		panic(fmt.Sprintf("core: event at %d out of horizon (now %d)", cycle, m.now))
	}
	slot := cycle % eventHorizon
	m.events[slot] = append(m.events[slot], execEvent{robIdx: robIdx, cycle: cycle})
}

// scheduleIQ records that ROB entry robIdx has every operand readable in
// its cluster from the given cycle; issue merges the slot into the ready
// list when that cycle arrives. cycle == now is legal (wakeups fire in
// writeback and issueComms, both of which run before issue).
func (m *Machine) scheduleIQ(robIdx, cycle uint64) {
	if cycle < m.now || cycle-m.now >= eventHorizon {
		panic(fmt.Sprintf("core: IQ wakeup at %d out of horizon (now %d)", cycle, m.now))
	}
	slot := cycle % eventHorizon
	m.iqCal[slot] = append(m.iqCal[slot], robIdx)
}

// Done reports whether the machine has drained: every stream exhausted,
// fetch queue and ROB empty.
func (m *Machine) Done() bool {
	if m.fetchQ.Len() != 0 || m.rob.Len() != 0 {
		return false
	}
	for i := range m.fes {
		if !m.fes[i].streamDone || m.fes[i].havePending {
			return false
		}
	}
	return true
}

// ErrNoProgress is returned by Run when the pipeline stops committing,
// which indicates a modelling bug rather than a legal machine state.
var ErrNoProgress = fmt.Errorf("core: no commit progress (pipeline wedged)")

// noProgressLimit is how many cycles without a commit Run tolerates
// (an L2 miss burst is ~hundreds of cycles; this is far beyond any legal
// stall).
const noProgressLimit = 1 << 16

// Run simulates until the stream drains or maxCycles elapses (0 means no
// cycle bound). It returns the final statistics. Provably inert stall
// windows (an L2 miss holding the ROB head, a drained fetch queue behind
// an I-cache refill) are fast-forwarded in bulk; the resulting statistics
// are bit-identical to stepping every cycle.
func (m *Machine) Run(maxCycles uint64) (Stats, error) {
	for !m.Done() {
		if maxCycles > 0 && m.now >= maxCycles {
			break
		}
		if m.fastForward(maxCycles) {
			continue
		}
		if err := m.Step(); err != nil {
			return m.Stats(), err
		}
	}
	return m.Stats(), nil
}

// RunCommitted advances the machine until at least n instructions have
// committed or the machine drains, with the same idle-cycle fast-forward
// as Run (quiet cycles commit nothing, so skipping them cannot overshoot
// the target). The harness uses it to run warm-up windows.
func (m *Machine) RunCommitted(n uint64) error {
	for m.stats.Committed < n && !m.Done() {
		if m.fastForward(0) {
			continue
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// fastForward detects that the current cycle — and a provable run of
// cycles after it — performs no work beyond bumping one dispatch stall
// counter, and executes the whole window at once: counters advance by the
// window length, the steering algorithm ticks in bulk, and the clock jumps
// to the first cycle that might do real work. The machine state after a
// fast-forward is bit-identical to stepping each cycle, including every
// statistics counter. Returns false when the current cycle must be
// stepped normally.
//
// A cycle is quiet when every pipeline stage is provably inert:
//
//   - writeback/issue: no completion event or issue-calendar wakeup is
//     scheduled for it (the calendars hold everything within
//     eventHorizon, so one ring scan finds the first busy cycle);
//   - commit: the ROB head is not done (its completion event would end
//     the window first);
//   - issueComms: no communication is eligible (commGlobalEligible);
//   - issue: nothing is in any ready list (a ready-but-blocked entry
//     re-arbitrates every cycle and accrues NReady/DCacheBusy);
//   - dispatch: the fetch queue is empty, the head is inside its
//     decode/steer latency, or a resource stall repeats deterministically
//     (probed via planDispatch, which is side-effect-free for stateless
//     steering; SSA machines step stall cycles normally because Choose
//     advances their round-robin state);
//   - fetch: the queue is full, or every stream is blocked on a
//     mispredict, exhausted, or waiting out an I-cache refill (the
//     earliest refill caps the window).
//
// Stalls decided after steering (IQ/regs/comm) additionally depend on the
// Choose decision; Conv's DCOUNT decay can change it, so those windows
// stop at the next decay boundary. Windows with a non-empty ROB stop
// before the no-progress limit so the wedge diagnostic fires at the exact
// cycle it always did.
func (m *Machine) fastForward(maxCycles uint64) bool {
	// Current-cycle activity: any of these makes the cycle non-quiet.
	if m.readyCount != 0 {
		return false
	}
	if m.commGlobalEligible <= m.now {
		return false
	}
	if e := m.rob.Peek(); e != nil && e.state == robDone {
		return false
	}
	slot := m.now % eventHorizon
	if len(m.events[slot]) != 0 || len(m.iqCal[slot]) != 0 {
		return false
	}

	// The window's end: the earliest future cycle with scheduled work.
	target := m.commGlobalEligible
	for d := uint64(1); d < eventHorizon; d++ {
		s := (m.now + d) % eventHorizon
		if len(m.events[s]) != 0 || len(m.iqCal[s]) != 0 {
			if t := m.now + d; t < target {
				target = t
			}
			break
		}
	}

	// Fetch: quiet while the queue is full (dispatch drains it, and
	// dispatch is inert below), fetch is suspended for a sampled-mode
	// drain, or no stream may fetch; the earliest I-cache refill
	// re-activates a stream.
	if !m.fetchQ.Full() && !m.fetchStop {
		for i := range m.fes {
			fe := &m.fes[i]
			if fe.fetchBlocked || (fe.streamDone && !fe.havePending) {
				continue // only a writeback can re-enable these
			}
			if m.now < fe.fetchResumeAt {
				if fe.fetchResumeAt < target {
					target = fe.fetchResumeAt
				}
				continue
			}
			return false // would fetch this cycle
		}
	}

	// Dispatch: classify the head's stall and how long it holds.
	var stall *uint64
	if fe := m.fetchQ.Peek(); fe == nil {
		stall = &m.stats.StallFetchMt
	} else if fe.readyAt > m.now {
		if fe.readyAt < target {
			target = fe.readyAt
		}
	} else if !m.statelessChoose {
		// SSA advances its round-robin counter inside Choose on every
		// stall cycle; probing would disturb it. Step normally.
		return false
	} else {
		var p dispatchPlan
		if m.planDispatch(&p) != dispatchStall {
			return false // head would dispatch: real work this cycle
		}
		stall = p.stall
		if stall != &m.stats.StallROB && stall != &m.stats.StallLSQ {
			// Post-steering stalls hold only while Choose is stable;
			// Conv's DCOUNT decay is the one in-window input change.
			if dc, ok := m.alg.(interface{ CyclesToDecay() uint64 }); ok {
				if t := m.now + dc.CyclesToDecay(); t < target {
					target = t
				}
			}
		}
	}

	// The no-progress diagnostic must fire at its exact historical cycle.
	if m.rob.Len() > 0 {
		if t := m.lastCommitAt + noProgressLimit; t < target {
			target = t
		}
	}
	if maxCycles > 0 && target > maxCycles {
		target = maxCycles
	}
	if target == neverAvail {
		// Nothing bounds the window (an empty machine waiting on nothing);
		// let the normal step loop handle it.
		return false
	}
	if target <= m.now {
		return false
	}

	k := target - m.now
	if stall != nil {
		*stall += k
	}
	m.alg.TickN(k)
	m.now = target
	m.fabric.Advance(m.now)
	m.stats.Cycles = m.now - m.statsBase
	return true
}

// Step advances the machine one cycle.
func (m *Machine) Step() error {
	if m.err != nil {
		return m.err
	}
	m.dcachePortsUse = 0
	m.writeback()
	m.commit()
	m.issueComms()
	m.issue()
	m.dispatch()
	m.fetch()
	if m.err != nil {
		return m.err
	}
	m.alg.Tick()
	m.now++
	m.fabric.Advance(m.now)
	m.stats.Cycles = m.now - m.statsBase
	if m.rob.Len() > 0 && m.now-m.lastCommitAt > noProgressLimit {
		return fmt.Errorf("%w at cycle %d (ROB %d, head seq %d state %d)",
			ErrNoProgress, m.now, m.rob.Len(), m.rob.Peek().seq, m.rob.Peek().state)
	}
	return nil
}
