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

// robSlot is a ROB buffer position. Calendars, ready sets and waiter
// lists refer to in-flight instructions by slot: an entry's slot is stable
// from dispatch to commit, and every reference to it is resolved before it
// commits (completion events fire before commit, readiness wakeups before
// issue), so no reference outlives its instruction.
type robSlot = int32

// noSlot terminates a calendar list.
const noSlot robSlot = -1

// noWaiter terminates a waiter list. A waiter link names a ROB slot and
// the source operand that waits: slot<<1 | operand.
const noWaiter int32 = -1

// robEntry is one in-flight instruction, in one 64-byte line. Kept lean:
// fields the back end never reads (PC, branch direction/target — resolved
// at fetch in this trace-driven model) stay in the fetch queue, and a
// memory operation's address lives in its LSQ entry.
type robEntry struct {
	// wakeup bookkeeping: waitSrcs counts sources whose availability
	// cycle in this entry's cluster is still unknown; readyAt is the
	// latest known availability cycle over the resolved sources. When
	// waitSrcs reaches zero the entry is scheduled into the issue
	// calendar at readyAt and never re-examined before then.
	readyAt uint64

	// depLSQ is, for a load, 1 + the LSQ index of the nearest older
	// same-address store identified at dispatch (0 when there is none);
	// issue then checks that single entry instead of rescanning the LSQ
	// every attempt.
	depLSQ uint64

	seq uint64
	// lsqSlot is a memory operation's LSQ buffer position (its entry is
	// live as long as the instruction is).
	lsqSlot int32

	srcVals [2]valueID
	destVal valueID
	prevVal valueID
	// next links the entry into one calendar list: the issue-readiness
	// calendar while it waits for its ready cycle, the completion
	// calendar once it has issued (never both at once).
	next robSlot
	// waitNext[i] links the entry into the waiter list of source i's
	// value while that value's availability in the entry's cluster is
	// unknown.
	waitNext [2]int32

	class    isa.Class
	cluster  int8
	state    robState
	stream   uint8
	numSrcs  int8
	waitSrcs int8
	// branch
	mispredict bool
}

// noReg marks an absent register in a fetch entry.
const noReg = 0xff

// fetchEntry is one decoded instruction in the fetch/decode queue: just
// the fields the back end consumes, not the full trace record (branch
// direction and target are resolved at fetch in this trace-driven model,
// and the PC only feeds the predictor and I-cache there). Registers are
// flat rename-map indices (kind·NumArchRegs + index); reads of the
// hardwired zero register are dropped at fetch, so src holds exactly
// numSrcs real sources in operand order.
type fetchEntry struct {
	seq     uint64
	effAddr uint64
	readyAt uint64 // earliest dispatch cycle (decode + steer latency)
	src     [2]uint8
	dest    uint8 // noReg when the instruction writes no register
	class   isa.Class
	numSrcs uint8
	stream  uint8
	// mispredict marks a branch the predictor got wrong.
	mispredict bool
}

// flatReg maps an architectural register to its rename-map index.
func flatReg(r isa.Reg) uint8 { return uint8(r.Kind)*isa.NumArchRegs + r.Idx }

// regKind is the namespace of a flat register index.
func regKind(flat uint8) isa.RegFileKind { return isa.RegFileKind(flat / isa.NumArchRegs) }

// lsqEntry is one memory operation in the load/store queue.
type lsqEntry struct {
	robIdx  uint64
	addr    uint64
	isStore bool
	issued  bool
}

// storeTable maps data addresses to LSQ indices: open addressing with
// linear probing over at least four slots per LSQ entry. It holds one
// entry per address with an in-flight store (the store's commit deletes
// the entry unless a younger store to the address replaced it), so it
// never holds more entries than the LSQ has, and probes stay short.
// Deletion shifts the rest of the probe run back instead of leaving
// tombstones.
type storeTable struct {
	addr []uint64
	idx  []uint64 // LSQ index + 1; 0 marks an empty slot
	// shift maps a hash to a slot: 64 - log2(len(addr)).
	shift uint
}

// reset empties the table and sizes it for an LSQ of lsqSize entries.
func (t *storeTable) reset(lsqSize int) {
	n := 16
	for n < 4*lsqSize {
		n <<= 1
	}
	if len(t.addr) != n {
		t.addr, t.idx = make([]uint64, n), make([]uint64, n)
	} else {
		clear(t.idx)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// home is addr's first probe slot (Fibonacci hashing).
func (t *storeTable) home(addr uint64) int {
	return int(addr * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns addr's slot, or -1.
func (t *storeTable) find(addr uint64) int {
	mask := len(t.addr) - 1
	for i := t.home(addr); t.idx[i] != 0; i = (i + 1) & mask {
		if t.addr[i] == addr {
			return i
		}
	}
	return -1
}

// get returns the LSQ index stored for addr.
func (t *storeTable) get(addr uint64) (uint64, bool) {
	if i := t.find(addr); i >= 0 {
		return t.idx[i] - 1, true
	}
	return 0, false
}

// put stores idx for addr, replacing any index stored before.
func (t *storeTable) put(addr, idx uint64) {
	mask := len(t.addr) - 1
	i := t.home(addr)
	for t.idx[i] != 0 && t.addr[i] != addr {
		i = (i + 1) & mask
	}
	t.addr[i], t.idx[i] = addr, idx+1
}

// remove deletes the entry at slot i, moving back each later entry of
// the probe run whose home slot does not lie cyclically in (i, j].
func (t *storeTable) remove(i int) {
	mask := len(t.addr) - 1
	for j := (i + 1) & mask; t.idx[j] != 0; j = (j + 1) & mask {
		if h := t.home(t.addr[j]); (j-h)&mask >= (j-i)&mask {
			t.addr[i], t.idx[i] = t.addr[j], t.idx[j]
			i = j
		}
	}
	t.idx[i] = 0
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

// Datapath sides: every issue structure exists once per cluster for each.
const (
	sideInt = 0
	sideFP  = 1
)

// clMask reduces a cluster number to the range of the per-cluster arrays
// (sized regfile.MaxClusters, a power of two). Cluster numbers are always
// in range; the mask lets the compiler drop the bounds check on the hot
// paths.
const clMask = regfile.MaxClusters - 1

// sideOf returns the issue side of an instruction class (FP loads and
// stores use the integer side: only FP arithmetic issues on the FP side).
func sideOf(c isa.Class) int {
	if c.IsFP() {
		return sideFP
	}
	return sideInt
}

// iqSide is one cluster's issue buffer for one datapath side. Occupancy
// (count) covers both the entries still waiting for operands — tracked
// through value wakeup lists and the issue calendar, never scanned — and
// the operand-ready entries, which are bits in the machine's ready sets.
type iqSide struct {
	cap   int
	count int
	// ready counts the set bits of this side's ready set.
	ready int
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
	cfg Config
	// fes holds one front end per workload stream; single-program runs
	// have exactly one. oneStream backs the single-stream Reset path so
	// recycling a pooled machine stays allocation-free.
	fes       []streamFE
	oneStream [1]trace.Stream
	// steer names the configured policy; only that one of ring, conv and
	// ssa is set up for the run, and the core calls it directly. Reset
	// re-initialises it in place, reusing its storage.
	steer  steerKind
	ring   steering.Ring
	conv   steering.Conv
	ssa    steering.SSA
	files  regfile.Files
	fabric *interconnect.Fabric
	pred   *bpred.Predictor
	mem    *cache.Hierarchy

	vals      valueTable
	renameMap [2 * isa.NumArchRegs]valueID

	// minDist caches fabric.MinDistances() (n×n, row-major by source);
	// visTable[c] caches visibleCluster(c). Both are per-operand lookups
	// on the dispatch path.
	minDist  []int8
	visTable [regfile.MaxClusters]int8

	rob queue.Ring[robEntry]
	// robWords is the word length of one ready set: a bitset over ROB
	// slots (see readyBits).
	robWords int
	fetchQ   queue.Ring[fetchEntry]
	lsq      queue.Ring[lsqEntry]
	// lastStore maps a data address to the LSQ index of the youngest
	// store to it, so load dispatch finds its forwarding dependency in
	// one lookup (entries go stale when the store commits; liveness is
	// re-checked against lsq.Head()).
	lastStore storeTable
	iq        [2][regfile.MaxClusters]iqSide
	// readyBits[side] holds one ready set per cluster, robWords words
	// each: bit s is set when the instruction in ROB slot s has every
	// operand readable and waits for an issue slot. Issue scans a set from
	// the ROB head's slot, which visits the instructions oldest-first.
	readyBits [2][]uint64
	// readyCount is the total entries across all ready sets; a cycle
	// with nothing ready (and no wakeups due) skips the issue pass.
	// readyMask[side] tracks which clusters have a non-empty ready set,
	// so the pass visits only those.
	readyCount int
	readyMask  [2]uint32
	commQ      [regfile.MaxClusters]queue.Bounded[commEntry]
	// commNextEligible[c] is a lower bound on the earliest eligibility
	// cycle of any entry in commQ[c] (neverAvail when empty); bus
	// arbitration skips the cluster's scan entirely while it lies in the
	// future. Pushes and wakeup stamps lower it; a completed scan
	// tightens it. commGlobalEligible is a lower bound on the minimum
	// over clusters, so a cycle with no eligible communication anywhere
	// skips the whole arbitration pass.
	commNextEligible   [regfile.MaxClusters]uint64
	commGlobalEligible uint64
	// commBusy has bit c set while commQ[c] is non-empty: arbitration
	// considers only those clusters.
	commBusy uint32
	// commLate collects, during an arbitration pass, the clusters a
	// wakeup made due in the current cycle.
	commLate uint32

	// evHead is the completion calendar: evHead[c%eventHorizon] heads
	// the list (linked through robEntry.next) of the ROB entries whose
	// execution completes at cycle c. wakeHead is the issue-readiness
	// calendar: the entries whose operands all become readable at cycle
	// c. Order within a list carries no meaning: completions and wakeups
	// of one cycle commute.
	evHead   [eventHorizon]robSlot
	wakeHead [eventHorizon]robSlot
	// calBusy has bit c%eventHorizon set while either calendar holds an
	// entry for cycle c, so the fast-forward finds the next cycle with
	// scheduled work in a few word scans.
	calBusy [eventHorizon / 64]uint64

	// multDivBusyUntil[c][side][unit]: the mult/div units (divides are
	// non-pipelined and occupy their unit to completion).
	multDivBusyUntil [regfile.MaxClusters][2][4]uint64

	now uint64

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
	streamStats [MaxStreams]StreamStats
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
	m.streamStats = [MaxStreams]StreamStats{}

	m.files.Reset(cfg.Clusters, cfg.RegsInt, cfg.RegsFP)
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
	m.rob.Reset(cfg.ROBSize)
	m.fetchQ.Reset(cfg.FetchQSize)
	m.lsq.Reset(cfg.LSQSize)
	m.lastStore.reset(cfg.LSQSize)

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
		m.steer = steerSSA
		m.ssa.Reset(cfg.Clusters)
	case cfg.Arch == ArchRing:
		m.steer = steerRing
		m.ring.Reset(m.minDist, &m.files, m.visTable[:cfg.Clusters])
	default:
		m.steer = steerConv
		m.conv.Reset(cfg.Clusters, cfg.Conv, m.minDist)
	}

	for c := 0; c < cfg.Clusters; c++ {
		m.iq[sideInt][c] = iqSide{cap: cfg.IQInt}
		m.iq[sideFP][c] = iqSide{cap: cfg.IQFP}
	}
	m.robWords = (cfg.ROBSize + 63) / 64
	for side := range m.readyBits {
		m.readyBits[side] = resetWords(m.readyBits[side], cfg.Clusters*m.robWords)
	}
	m.readyCount = 0
	m.readyMask = [2]uint32{}
	for c := 0; c < cfg.Clusters; c++ {
		m.commQ[c].Reset(cfg.IQComm)
	}
	for c := range m.commNextEligible {
		m.commNextEligible[c] = neverAvail
	}
	m.commGlobalEligible = neverAvail
	m.commBusy = 0

	for i := range m.evHead {
		m.evHead[i] = noSlot
		m.wakeHead[i] = noSlot
	}
	m.calBusy = [eventHorizon / 64]uint64{}
	m.multDivBusyUntil = [regfile.MaxClusters][2][4]uint64{}
	m.now = 0
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
	m.vals.reset(cfg.Clusters, cfg.Copies == ReleaseOnRead)
	for kind := 0; kind < 2; kind++ {
		for r := 0; r < isa.NumArchRegs; r++ {
			id := m.vals.alloc(isa.RegFileKind(kind))
			v := m.vals.get(id)
			v.produced = true
			home := r % cfg.Clusters
			v.copyMask = 1 << uint(home)
			*m.vals.availAt(id, home) = 0
			v.home = int8(home)
			m.renameMap[kind*isa.NumArchRegs+r] = id
		}
	}
	return nil
}

// resetWords returns a zeroed slice of n words, reusing s's array when it
// is large enough.
func resetWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns a copy of the statistics gathered so far. Multi-stream
// machines additionally attach the per-stream breakdown (single-stream
// machines leave it nil: the totals are the stream).
func (m *Machine) Stats() Stats {
	s := m.stats
	if len(m.fes) > 1 {
		s.PerStream = append([]StreamStats(nil), m.streamStats[:len(m.fes)]...)
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
	m.streamStats = [MaxStreams]StreamStats{}
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

// steerKind names the steering policy a machine runs.
type steerKind uint8

const (
	steerRing steerKind = iota // Section 3.1 (Ring, enhanced)
	steerConv                  // Section 4.1 DCOUNT (Conv, enhanced)
	steerSSA                   // Section 4.7 simple steering, either architecture
)

// visibleCluster returns the cluster whose register file receives the
// result of an instruction executing in cluster c: the next cluster on the
// ring machine, the same cluster on the conventional one.
func (m *Machine) visibleCluster(c int) int {
	return int(m.visTable[c&(regfile.MaxClusters-1)])
}

// schedule registers the completion of ROB entry e (at slot s) at cycle.
func (m *Machine) schedule(e *robEntry, s robSlot, cycle uint64) {
	if cycle <= m.now || cycle-m.now >= eventHorizon {
		panic(horizonError{"event", cycle, m.now})
	}
	slot := cycle % eventHorizon
	e.next = m.evHead[slot]
	m.evHead[slot] = s
	m.calBusy[slot/64] |= 1 << (slot % 64)
}

// scheduleIQ records that ROB entry e (at slot s) has every operand
// readable in its cluster from the given cycle; issue merges it into its
// ready set when that cycle arrives. cycle == now is legal (wakeups fire
// in writeback and issueComms, both of which run before issue).
func (m *Machine) scheduleIQ(e *robEntry, s robSlot, cycle uint64) {
	if cycle < m.now || cycle-m.now >= eventHorizon {
		panic(horizonError{"IQ wakeup", cycle, m.now})
	}
	slot := cycle % eventHorizon
	e.next = m.wakeHead[slot]
	m.wakeHead[slot] = s
	m.calBusy[slot/64] |= 1 << (slot % 64)
}

// calBusyAt reports whether either calendar holds an entry for cycle t.
func (m *Machine) calBusyAt(t uint64) bool {
	slot := t % eventHorizon
	return m.calBusy[slot/64]&(1<<(slot%64)) != 0
}

// nextCalBusy returns the first cycle after now (and before
// now+eventHorizon) with a calendar entry, or neverAvail.
func (m *Machine) nextCalBusy() uint64 {
	const words = eventHorizon / 64
	from := (m.now + 1) % eventHorizon
	w0 := from / 64
	// Visit the starting word's slots from `from` up, the other words,
	// and last the starting word's slots below `from` (the latest cycles
	// of the horizon).
	for k := uint64(0); k <= words; k++ {
		w := (w0 + k) % words
		word := m.calBusy[w]
		if k == 0 {
			word &^= 1<<(from%64) - 1
		} else if k == words {
			word &= 1<<(from%64) - 1
		}
		if word != 0 {
			slot := w*64 + uint64(bits.TrailingZeros64(word))
			return m.now + 1 + (slot+eventHorizon-from)%eventHorizon
		}
	}
	return neverAvail
}

// horizonError is the panic value of a calendar entry outside the
// horizon. Formatting happens only if the panic is printed, which keeps
// schedule and scheduleIQ small enough to inline.
type horizonError struct {
	what       string
	cycle, now uint64
}

func (e horizonError) Error() string {
	return fmt.Sprintf("core: %s at %d out of horizon (now %d)", e.what, e.cycle, e.now)
}

// Done reports whether the machine has drained: every stream exhausted,
// fetch queue and ROB empty.
func (m *Machine) Done() bool {
	return m.fetchQ.Len() == 0 && m.rob.Len() == 0 && m.streamsDone()
}

// streamsDone reports whether every stream is exhausted with nothing
// held back.
func (m *Machine) streamsDone() bool {
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
//     eventHorizon, and their occupancy bitmap finds the first busy
//     cycle);
//   - commit: the ROB head is not done (its completion event would end
//     the window first);
//   - issueComms: no communication is eligible (commGlobalEligible, a
//     lower bound: a low one only ends a window early);
//   - issue: nothing is in any ready set (a ready-but-blocked entry
//     re-arbitrates every cycle and accrues NReady/DCacheBusy);
//   - dispatch: the fetch queue is empty, the head is inside its
//     decode/steer latency, or a resource stall repeats deterministically
//     (probed via dispatchOne, which is side-effect-free for stateless
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
	// The first two are tested here, where the loops that call this can
	// inline them, since a busy cycle usually fails one.
	if m.readyCount != 0 || m.commGlobalEligible <= m.now {
		return false
	}
	return m.fastForwardWindow(maxCycles)
}

// fastForwardWindow is fastForward past its two inlined checks.
func (m *Machine) fastForwardWindow(maxCycles uint64) bool {
	if e := m.rob.Peek(); e != nil && e.state == robDone {
		return false
	}
	if m.calBusyAt(m.now) {
		return false
	}

	// The window's end: the earliest future cycle with scheduled work.
	target := min(m.commGlobalEligible, m.nextCalBusy())

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
	} else if m.steer == steerSSA {
		// SSA advances its round-robin counter inside Choose on every
		// stall cycle; probing would disturb it. Step normally.
		return false
	} else {
		if stall = m.dispatchOne(fe, true); stall == nil {
			return false // head would dispatch: real work this cycle
		}
		if stall != &m.stats.StallROB && stall != &m.stats.StallLSQ && m.steer == steerConv {
			// Post-steering stalls hold only while Choose is stable;
			// Conv's DCOUNT decay is the one in-window input change.
			if t := m.now + m.conv.CyclesToDecay(); t < target {
				target = t
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
	if m.steer == steerConv {
		m.conv.TickN(k)
	}
	m.now = target
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
	if m.steer == steerConv {
		m.conv.Tick()
	}
	m.now++
	m.stats.Cycles = m.now - m.statsBase
	if m.rob.Len() > 0 && m.now-m.lastCommitAt > noProgressLimit {
		return fmt.Errorf("%w at cycle %d (ROB %d, head seq %d state %d)",
			ErrNoProgress, m.now, m.rob.Len(), m.rob.Peek().seq, m.rob.Peek().state)
	}
	return nil
}
