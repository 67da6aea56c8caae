package core

import (
	"errors"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/steering"
	"repro/internal/trace"
)

// writeback applies every completion scheduled for the current cycle:
// results become visible (next cluster on Ring, same cluster on Conv),
// ROB entries turn done, and resolved mispredicted branches unblock fetch.
func (m *Machine) writeback() {
	slot := m.now % eventHorizon
	evs := m.events[slot]
	if len(evs) == 0 {
		return
	}
	m.events[slot] = evs[:0]
	for _, ev := range evs {
		if ev.cycle != m.now {
			panic("core: event fired at the wrong cycle")
		}
		e := m.rob.AtAbs(ev.robIdx)
		e.state = robDone
		if e.destVal != noValue {
			v := m.vals.get(e.destVal)
			v.produced = true
			vc := m.visibleCluster(int(e.cluster))
			if m.now < v.avail[vc] {
				v.avail[vc] = m.now
			}
			m.wakeValue(e.destVal, v, vc)
		}
		if e.class == isa.Branch {
			m.stats.Branches++
			m.streamStats[e.stream].Branches++
			if e.mispredict {
				m.stats.Mispredicts++
				m.streamStats[e.stream].Mispredicts++
				fe := &m.fes[e.stream]
				fe.fetchBlocked = false
				fe.fetchResumeAt = m.now + 1
			}
		}
	}
}

// wakeValue resolves the availability cycle of value vid (= v) in cluster
// c for everything waiting on it there: issue-queue entries absorb
// avail[c] into their ready time and are scheduled into the issue
// calendar when no unknown sources remain, and pending communications
// sourced in c get their eligibility cycle stamped. Waiters for other
// clusters stay registered.
func (m *Machine) wakeValue(vid valueID, v *value, c int) {
	avail := v.avail[c]
	if ws := v.waiters; len(ws) > 0 {
		kept := ws[:0]
		for _, w := range ws {
			if int(w.cluster) != c {
				kept = append(kept, w)
				continue
			}
			e := m.rob.AtAbs(w.robIdx)
			if avail > e.readyAt {
				e.readyAt = avail
			}
			e.waitSrcs--
			if e.waitSrcs == 0 {
				t := e.readyAt
				if t < m.now {
					t = m.now
				}
				m.scheduleIQ(w.robIdx, t)
			}
		}
		v.waiters = kept
	}
	if v.commWaitMask&(1<<uint(c)) != 0 {
		v.commWaitMask &^= 1 << uint(c)
		q := m.commQ[c]
		for i := 0; i < q.Len(); i++ {
			ce := q.At(i)
			if ce.val == vid && ce.eligibleAt == neverAvail {
				ce.eligibleAt = avail
			}
		}
		if avail < m.commNextEligible[c] {
			m.commNextEligible[c] = avail
		}
		if avail < m.commGlobalEligible {
			m.commGlobalEligible = avail
		}
	}
}

// commit retires done instructions in order, up to the commit width.
// Retiring an instruction that redefines a register releases every
// physical copy of the previous value of that register in one shot — the
// paper's chosen copy-release policy.
func (m *Machine) commit() {
	for n := 0; n < m.cfg.CommitWidth; n++ {
		e := m.rob.Peek()
		if e == nil || e.state != robDone {
			return
		}
		if e.prevVal != noValue {
			pv := m.vals.get(e.prevVal)
			m.files.ReleaseMask(pv.allocMask, pv.kind)
			m.vals.release(e.prevVal)
		}
		if e.hasLSQ {
			le := m.lsq.Peek()
			if le == nil || le.robIdx != m.rob.Head() {
				panic("core: LSQ out of sync with ROB")
			}
			if le.isStore {
				// Committed stores update the data cache off the
				// critical path.
				m.cov.DLat += uint64(m.mem.DataAccess(le.addr, true))
				m.stats.Stores++
				m.streamStats[e.stream].Stores++
				// Retire the forwarding-map entry if this store is still
				// the youngest for its address, bounding the map to
				// roughly LSQ occupancy (a stale entry would be ignored
				// anyway: issue checks liveness against lsq.Head()).
				if idx, ok := m.lastStore[le.addr]; ok && idx == m.lsq.Head() {
					delete(m.lastStore, le.addr)
				}
			} else {
				m.stats.Loads++
				m.streamStats[e.stream].Loads++
			}
			m.lsq.Drop()
		}
		m.stats.Committed++
		m.streamStats[e.stream].Committed++
		m.fes[e.stream].inFlight--
		m.lastCommitAt = m.now
		m.rob.Drop()
	}
}

// issueComms lets ready communication instructions compete for bus slots.
// A communication is ready once its value is readable in its source
// cluster; contention is the time from ready to injection. Clusters take
// turns getting first pick so no cluster is structurally favored.
func (m *Machine) issueComms() {
	if m.commGlobalEligible > m.now {
		return
	}
	n := m.cfg.Clusters
	start := int(m.now % uint64(n))
	for k := 0; k < n; k++ {
		c := start + k
		if c >= n {
			c -= n
		}
		if m.commNextEligible[c] > m.now {
			continue
		}
		q := m.commQ[c]
		// The register file provisions one extra read port per bus
		// (Section 3), so at most Buses communications issue per cluster
		// per cycle.
		issued := 0
		nextEligible := neverAvail
		i := 0
		for i < q.Len() && issued < m.cfg.Buses {
			ce := q.At(i)
			if ce.eligibleAt > m.now {
				if ce.eligibleAt < nextEligible {
					nextEligible = ce.eligibleAt
				}
				i++
				continue
			}
			v := m.vals.get(ce.val)
			if !ce.haveReady {
				ce.haveReady = true
				ce.readySince = m.now
			}
			var arrival uint64
			var dist int
			var ok bool
			switch m.cfg.Comm {
			case CommInstant:
				arrival, dist, ok = m.now, m.fabric.MinDistance(c, int(ce.dst)), true
			case CommNoContention:
				dist = m.fabric.MinDistance(c, int(ce.dst))
				arrival, ok = m.now+uint64(dist*m.cfg.HopLatency), true
			default:
				arrival, dist, ok = m.fabric.TrySend(m.now, c, int(ce.dst))
			}
			if !ok {
				// Eligible but bus-blocked: retry next cycle.
				nextEligible = m.now
				i++
				continue
			}
			if arrival < v.avail[ce.dst] {
				v.avail[ce.dst] = arrival
			}
			m.wakeValue(ce.val, v, int(ce.dst))
			m.stats.CommHops += uint64(dist)
			m.stats.CommWait += m.now - ce.readySince
			if m.cfg.Copies == ReleaseOnRead {
				m.noteRead(ce.val, c)
			}
			q.RemoveAt(i)
			issued++
		}
		if i < q.Len() {
			// Bus quota exhausted with entries unexamined; any of them
			// may be eligible, so rescan next cycle.
			nextEligible = m.now
		}
		m.commNextEligible[c] = nextEligible
	}
	g := neverAvail
	for _, t := range m.commNextEligible {
		if t < g {
			g = t
		}
	}
	m.commGlobalEligible = g
}

// noteRead records that one dispatched read of value vid from cluster c
// has been performed, releasing the communicated copy when it was the
// last (ReleaseOnRead policy only). The home copy is never read-released:
// it carries the architectural state until the register is redefined.
func (m *Machine) noteRead(vid valueID, c int) {
	v := m.vals.get(vid)
	if v.readers[c] == 0 {
		panic("core: operand read without a dispatched reader")
	}
	v.readers[c]--
	bit := uint32(1) << uint(c)
	if v.readers[c] == 0 && int(v.home) != c && v.allocMask&bit != 0 {
		m.files.Release(c, v.kind)
		v.allocMask &^= bit
		v.copyMask &^= bit
		v.avail[c] = neverAvail
	}
}

// multDivUnit returns a free mult/div unit in cluster c on the given side
// (0=int, 1=fp), or -1.
func (m *Machine) multDivUnit(c, side, width int) int {
	if width > 4 {
		width = 4
	}
	for u := 0; u < width; u++ {
		if m.multDivBusyUntil[c][side][u] <= m.now {
			return u
		}
	}
	return -1
}

// tryExecute checks structural resources for e issuing in cluster c and,
// when they are available, claims them and returns the execution latency.
func (m *Machine) tryExecute(e *robEntry, c int) (lat int, ok bool) {
	switch e.class {
	case isa.IntALU, isa.Branch:
		return 1, true
	case isa.IntMult:
		if m.multDivUnit(c, 0, m.cfg.IssueInt) < 0 {
			return 0, false
		}
		return isa.IntMult.Latency(), true
	case isa.IntDiv:
		u := m.multDivUnit(c, 0, m.cfg.IssueInt)
		if u < 0 {
			return 0, false
		}
		lat = isa.IntDiv.Latency()
		m.multDivBusyUntil[c][0][u] = m.now + uint64(lat)
		return lat, true
	case isa.FPAdd:
		return isa.FPAdd.Latency(), true
	case isa.FPMult:
		if m.multDivUnit(c, 1, m.cfg.IssueFP) < 0 {
			return 0, false
		}
		return isa.FPMult.Latency(), true
	case isa.FPDiv:
		u := m.multDivUnit(c, 1, m.cfg.IssueFP)
		if u < 0 {
			return 0, false
		}
		lat = isa.FPDiv.Latency()
		m.multDivBusyUntil[c][1][u] = m.now + uint64(lat)
		return lat, true
	case isa.Store:
		// Stores issue once address and data operands are ready; the
		// cache write happens at commit.
		m.lsq.AtAbs(e.lsqIdx).issued = true
		return 1, true
	case isa.Load:
		return m.tryExecuteLoad(e, c)
	}
	panic("core: unknown class at issue")
}

// tryExecuteLoad applies memory disambiguation and D-cache port limits.
// Disambiguation is perfect (trace-driven addresses): a load waits only
// for the nearest older store to the same address — identified once at
// dispatch — and forwards from it while that store is still in the LSQ.
func (m *Machine) tryExecuteLoad(e *robEntry, c int) (lat int, ok bool) {
	if e.hasDep && e.depLSQ >= m.lsq.Head() {
		if !m.lsq.AtAbs(e.depLSQ).issued {
			return 0, false // store data not ready yet
		}
		m.stats.LoadFwds++
		return 2, true // AGU + store-to-load forward
	}
	if m.dcachePortsUse >= m.cfg.Mem.DCachePorts {
		m.stats.DCacheBusy++
		return 0, false
	}
	m.dcachePortsUse++
	transit := m.cfg.Mem.ClusterTransit
	dlat := m.mem.DataAccess(e.effAddr, false)
	m.cov.DLat += uint64(dlat)
	return 1 + 2*transit + dlat, true
}

// issueSide walks one cluster's ready list (one side), issuing
// oldest-first up to the width, and returns the NREADY bookkeeping:
// ready-but-width-blocked entries and the slots actually used. Every
// entry in the list has its operands readable — waiting instructions
// never reach it — so the only per-entry work is the structural check.
func (m *Machine) issueSide(c int, q *iqSide, width int) (surplus, issuedN int) {
	issued := 0
	for i := 0; i < len(q.ready); {
		idx := q.ready[i]
		e := m.rob.AtAbs(idx)
		if issued >= width {
			surplus++
			i++
			continue
		}
		lat, ok := m.tryExecute(e, c)
		if !ok {
			i++
			continue
		}
		e.state = robIssued
		if m.cfg.Copies == ReleaseOnRead {
			for s := 0; s < int(e.numSrcs); s++ {
				if e.srcVals[s] != noValue {
					m.noteRead(e.srcVals[s], c)
				}
			}
		}
		m.schedule(idx, m.now+uint64(lat))
		q.removeReady(i)
		q.count--
		m.readyCount--
		issued++
	}
	return surplus, issued
}

// issue merges the entries whose operands became readable this cycle into
// their ready lists, then runs the per-cluster select logic and
// accumulates the NREADY workload-imbalance figure: ready instructions
// beyond their cluster's issue width that idle slots elsewhere could have
// absorbed, computed per side (an integer instruction cannot use an FP
// slot).
func (m *Machine) issue() {
	slot := m.now % eventHorizon
	if wakes := m.iqCal[slot]; len(wakes) > 0 {
		m.iqCal[slot] = wakes[:0]
		for _, idx := range wakes {
			e := m.rob.AtAbs(idx)
			if e.class.IsFP() {
				m.iqFP[e.cluster].insertReady(idx)
				m.readyMaskFP |= 1 << uint(e.cluster)
			} else {
				m.iqInt[e.cluster].insertReady(idx)
				m.readyMaskInt |= 1 << uint(e.cluster)
			}
		}
		m.readyCount += len(wakes)
	}
	if m.readyCount == 0 {
		// Nothing ready anywhere: no issue and no NREADY surplus (idle
		// slots without surplus contribute nothing to the imbalance).
		return
	}
	// Only clusters with a non-empty ready list are visited; every slot
	// of a skipped cluster is idle, so idle = total width - issued.
	var surInt, issInt, surFP, issFP int
	for mk := m.readyMaskInt; mk != 0; mk &= mk - 1 {
		c := bits.TrailingZeros32(mk)
		s, is := m.issueSide(c, &m.iqInt[c], m.cfg.IssueInt)
		surInt += s
		issInt += is
		if len(m.iqInt[c].ready) == 0 {
			m.readyMaskInt &^= 1 << uint(c)
		}
	}
	for mk := m.readyMaskFP; mk != 0; mk &= mk - 1 {
		c := bits.TrailingZeros32(mk)
		s, is := m.issueSide(c, &m.iqFP[c], m.cfg.IssueFP)
		surFP += s
		issFP += is
		if len(m.iqFP[c].ready) == 0 {
			m.readyMaskFP &^= 1 << uint(c)
		}
	}
	idleInt := m.cfg.Clusters*m.cfg.IssueInt - issInt
	idleFP := m.cfg.Clusters*m.cfg.IssueFP - issFP
	m.stats.NReadyInt += uint64(min(surInt, idleInt))
	m.stats.NReadyFP += uint64(min(surFP, idleFP))
	m.stats.NReady += uint64(min(surInt, idleInt) + min(surFP, idleFP))
}

// regNeed is one physical-register requirement discovered at dispatch.
type regNeed struct {
	cluster int
	kind    isa.RegFileKind
}

// commNeed is one communication requirement discovered at dispatch: which
// operand needs to move and the cluster that sources the copy.
type commNeed struct {
	op  int
	src int
}

// dispatchOutcome is planDispatch's verdict on the fetch-queue head.
type dispatchOutcome uint8

const (
	// dispatchOK: every resource is available; applyDispatch may commit
	// the plan.
	dispatchOK dispatchOutcome = iota
	// dispatchEmpty: the fetch queue is empty (StallFetchMt).
	dispatchEmpty
	// dispatchNotReady: the head is still in decode/steer latency.
	dispatchNotReady
	// dispatchStall: a resource is missing; plan.stall names the counter.
	dispatchStall
)

// dispatchPlan is the planning state planDispatch hands to applyDispatch:
// the renamed sources, the steering decision, and the resource needs the
// checks validated. The steering request itself lives in m.steerReq.
type dispatchPlan struct {
	fe       *fetchEntry
	srcIDs   [2]valueID
	srcKinds [2]isa.RegFileKind
	cl       int
	side     *iqSide
	needs    [3]regNeed
	nNeeds   int
	comms    [2]commNeed
	nComms   int
	stall    *uint64 // set on dispatchStall: the stats counter to bump
}

// planDispatch decides whether the fetch-queue head can dispatch this
// cycle, filling p with everything applyDispatch needs. It performs no
// machine mutation beyond the m.steerReq scratch area — except through
// alg.Choose, which mutates round-robin state for SSA (the idle-cycle
// fast-forward therefore only probes stateless-steering machines). The
// check order is load-bearing: stateless policies test ROB/LSQ before
// steering (a full-ROB cycle skips renaming entirely), SSA after, so its
// in-Choose state advances exactly as often as before the refactor.
func (m *Machine) planDispatch(p *dispatchPlan) dispatchOutcome {
	fe := m.fetchQ.Peek()
	if fe == nil {
		return dispatchEmpty
	}
	if fe.readyAt > m.now {
		return dispatchNotReady
	}
	if m.statelessChoose {
		if m.rob.Full() {
			p.stall = &m.stats.StallROB
			return dispatchStall
		}
		if fe.class.IsMem() && m.lsq.Full() {
			p.stall = &m.stats.StallLSQ
			return dispatchStall
		}
	}
	// Rename sources. The request lives on the machine: passing a
	// stack-local through the Algorithm interface would heap-allocate
	// once per steering decision. Resetting the count suffices —
	// consumers never read Ops beyond NumOps.
	req := &m.steerReq
	req.NumOps = 0
	for i := 0; i < int(fe.numSrcs); i++ {
		r := fe.src[i]
		if r.IsZero() {
			continue
		}
		vid := m.renameMap[r.Kind][r.Idx]
		v := m.vals.get(vid)
		req.Ops[req.NumOps] = steering.Operand{Mask: v.copyMask, Pending: !v.produced}
		p.srcIDs[req.NumOps] = vid
		p.srcKinds[req.NumOps] = r.Kind
		req.NumOps++
	}
	req.Kind = isa.IntReg
	if fe.writesReg {
		req.Kind = fe.dest.Kind
	}

	cl := m.alg.Choose(m, req)

	// Global structures.
	if m.rob.Full() {
		p.stall = &m.stats.StallROB
		return dispatchStall
	}
	if fe.class.IsMem() && m.lsq.Full() {
		p.stall = &m.stats.StallLSQ
		return dispatchStall
	}
	side := &m.iqInt[cl]
	if fe.class.IsFP() {
		side = &m.iqFP[cl]
	}
	if side.count >= side.cap {
		p.stall = &m.stats.StallIQ
		return dispatchStall
	}

	// Discover register and comm-queue needs (checked before any
	// allocation so a stall leaks nothing).
	p.nNeeds = 0
	if fe.writesReg {
		p.needs[p.nNeeds] = regNeed{m.visibleCluster(cl), fe.dest.Kind}
		p.nNeeds++
	}
	p.nComms = 0
	for i := 0; i < req.NumOps; i++ {
		if i > 0 && p.srcIDs[i] == p.srcIDs[0] {
			continue // both operands read the same value: one comm suffices
		}
		mask := req.Ops[i].Mask
		if mask == 0 || mask&(1<<uint(cl)) != 0 {
			continue // readable in cl (or everywhere); no comm
		}
		src := m.nearestCopy(mask, cl)
		p.comms[p.nComms] = commNeed{op: i, src: src}
		p.nComms++
		p.needs[p.nNeeds] = regNeed{cl, p.srcKinds[i]}
		p.nNeeds++
	}
	for i := 0; i < p.nNeeds; i++ {
		needed := 1
		for j := 0; j < i; j++ {
			if p.needs[j] == p.needs[i] {
				needed++
			}
		}
		if m.files.Free(p.needs[i].cluster, p.needs[i].kind) < needed {
			p.stall = &m.stats.StallRegs
			return dispatchStall
		}
	}
	for i := 0; i < p.nComms; i++ {
		needed := 1
		for j := 0; j < i; j++ {
			if p.comms[j].src == p.comms[i].src {
				needed++
			}
		}
		if m.commQ[p.comms[i].src].Free() < needed {
			p.stall = &m.stats.StallComm
			return dispatchStall
		}
	}
	p.fe, p.cl, p.side = fe, cl, side
	return dispatchOK
}

// dispatch renames, steers and inserts instructions into the back end, in
// order, up to the dispatch width, stalling at the first instruction whose
// chosen cluster lacks a resource (paper Section 3.1: "if the chosen
// cluster is full, then the dispatch stage is stalled").
func (m *Machine) dispatch() {
	var p dispatchPlan
	for n := 0; n < m.cfg.DispatchWidth; n++ {
		switch m.planDispatch(&p) {
		case dispatchEmpty:
			m.stats.StallFetchMt++
			return
		case dispatchNotReady:
			return
		case dispatchStall:
			*p.stall++
			return
		}
		m.applyDispatch(&p)
	}
}

// applyDispatch performs the dispatch a successful planDispatch validated:
// claims the ROB slot, allocates registers and communications, links the
// LSQ and wakeup structures. Resource checks already passed, so every
// allocation here must succeed.
func (m *Machine) applyDispatch(p *dispatchPlan) {
	fe, cl, side := p.fe, p.cl, p.side
	req := &m.steerReq
	srcIDs := &p.srcIDs
	srcKinds := &p.srcKinds

	// The ROB slot is claimed up front and the entry is built in place.
	robIdx := m.rob.Tail()
	ep, pushed := m.rob.PushRef()
	if !pushed {
		panic("core: ROB slot vanished after check")
	}
	*ep = robEntry{
		seq:        fe.seq,
		class:      fe.class,
		cluster:    int8(cl),
		stream:     fe.stream,
		state:      robWaiting,
		destVal:    noValue,
		prevVal:    noValue,
		effAddr:    fe.effAddr,
		mispredict: fe.mispredict,
	}
	for i := 0; i < req.NumOps; i++ {
		ep.srcVals[i] = srcIDs[i]
	}
	ep.numSrcs = int8(req.NumOps)

	for i := 0; i < p.nComms; i++ {
		c := p.comms[i]
		v := m.vals.get(srcIDs[c.op])
		if !m.files.Alloc(cl, srcKinds[c.op]) {
			panic("core: copy register vanished after check")
		}
		v.copyMask |= 1 << uint(cl)
		v.allocMask |= 1 << uint(cl)
		if m.cfg.Copies == ReleaseOnRead {
			v.readers[c.src]++ // the communication itself reads at its source
		}
		ce := commEntry{val: srcIDs[c.op], src: int8(c.src), dst: int8(cl)}
		if a := v.avail[c.src]; a == neverAvail {
			ce.eligibleAt = neverAvail
			v.commWaitMask |= 1 << uint(c.src)
		} else {
			ce.eligibleAt = a
		}
		if ce.eligibleAt < m.commNextEligible[c.src] {
			m.commNextEligible[c.src] = ce.eligibleAt
		}
		if ce.eligibleAt < m.commGlobalEligible {
			m.commGlobalEligible = ce.eligibleAt
		}
		if !m.commQ[c.src].Push(ce) {
			panic("core: comm queue slot vanished after check")
		}
		m.stats.Comms++
		m.streamStats[fe.stream].Comms++
	}
	if m.cfg.Copies == ReleaseOnRead {
		for i := 0; i < req.NumOps; i++ {
			m.vals.get(srcIDs[i]).readers[cl]++
		}
	}

	if fe.writesReg {
		home := m.visibleCluster(cl)
		if !m.files.Alloc(home, fe.dest.Kind) {
			panic("core: destination register vanished after check")
		}
		vid := m.vals.alloc(fe.dest.Kind)
		v := m.vals.get(vid)
		v.copyMask = 1 << uint(home)
		v.allocMask = 1 << uint(home)
		v.home = int8(home)
		ep.destVal = vid
		ep.destKind = fe.dest.Kind
		ep.prevVal = m.renameMap[fe.dest.Kind][fe.dest.Idx]
		m.renameMap[fe.dest.Kind][fe.dest.Idx] = vid
	}

	if fe.class.IsMem() {
		lsqIdx, ok := m.lsq.Push(lsqEntry{robIdx: robIdx, addr: fe.effAddr, isStore: fe.class == isa.Store})
		if !ok {
			panic("core: LSQ slot vanished after check")
		}
		ep.hasLSQ = true
		ep.lsqIdx = lsqIdx
		if fe.class == isa.Store {
			m.lastStore[fe.effAddr] = lsqIdx
		} else if dep, found := m.lastStore[fe.effAddr]; found {
			// The youngest older store to this address; all older
			// same-address stores commit before it, so if it has left
			// the LSQ by issue time the load goes to the cache.
			ep.hasDep, ep.depLSQ = true, dep
		}
	}

	// Insert into the issue queue: resolve each source's availability
	// cycle in cl now, registering a wakeup on values whose cycle is
	// still unknown. Entries with fully known timing go straight into
	// the issue calendar and are never rescanned while they wait.
	re := ep
	for i := 0; i < int(re.numSrcs); i++ {
		sv := re.srcVals[i]
		if sv == noValue {
			continue
		}
		v := m.vals.get(sv)
		if a := v.avail[cl]; a == neverAvail {
			v.waiters = append(v.waiters, iqWaiter{robIdx: robIdx, cluster: int8(cl)})
			re.waitSrcs++
		} else if a > re.readyAt {
			re.readyAt = a
		}
	}
	side.count++
	if re.waitSrcs == 0 {
		t := re.readyAt
		if t <= m.now {
			// Already readable: eligible from the next cycle (issue
			// precedes dispatch within a cycle).
			t = m.now + 1
		}
		m.scheduleIQ(robIdx, t)
	}

	m.alg.OnDispatch(cl)
	m.stats.Dispatched++
	m.streamStats[fe.stream].Dispatched++
	m.stats.PerCluster[cl]++
	if u := uint64(m.files.TotalUsed(isa.IntReg)); u > m.stats.PeakRegsInt {
		m.stats.PeakRegsInt = u
	}
	if u := uint64(m.files.TotalUsed(isa.FPReg)); u > m.stats.PeakRegsFP {
		m.stats.PeakRegsFP = u
	}
	m.fetchQ.Drop()
}

// nearestCopy returns the cluster holding a copy of the value (per mask)
// with the shortest bus distance to dst, breaking ties toward lower
// indices.
func (m *Machine) nearestCopy(mask uint32, dst int) int {
	best, bestD := -1, int(^uint(0)>>1)
	row := m.minDist
	n := m.cfg.Clusters
	for mk := mask; mk != 0; mk &= mk - 1 {
		s := bits.TrailingZeros32(mk)
		if d := int(row[s*n+dst]); d < bestD {
			best, bestD = s, d
		}
	}
	if best < 0 {
		panic("core: nearestCopy with empty mask")
	}
	return best
}

// pickFetchStream chooses which stream fetches this cycle: the eligible
// stream with the fewest in-flight instructions (the SMT ICOUNT policy —
// it starves streams that hog the back end and keeps the machine's
// shared structures evenly contended), ties broken toward the lowest
// stream index. A stream is eligible unless it is blocked behind an
// unresolved mispredict, waiting out an I-cache miss, or exhausted.
// Single-stream machines reduce to exactly the historical front end:
// stream 0 is picked iff it would have fetched.
func (m *Machine) pickFetchStream() (*streamFE, uint8) {
	var best *streamFE
	var bestIdx uint8
	for i := range m.fes {
		fe := &m.fes[i]
		if fe.fetchBlocked || m.now < fe.fetchResumeAt {
			continue
		}
		if fe.streamDone && !fe.havePending {
			continue
		}
		if best == nil || fe.inFlight < best.inFlight {
			best, bestIdx = fe, uint8(i)
		}
	}
	return best, bestIdx
}

// fetch pulls instructions from one stream's trace into the fetch queue:
// up to the fetch width per cycle, stopping at taken branches, stalling
// on instruction-cache misses, and blocking behind unresolved
// mispredicted branches (the standard trace-driven front-end model: no
// wrong-path fetch, misprediction costs resolution time plus pipeline
// refill). With multiple workload streams, ICOUNT arbitration picks the
// cycle's stream; a mispredict or I-cache miss blocks only its own
// stream, and the others compete for the very next cycle.
func (m *Machine) fetch() {
	if m.fetchStop {
		return
	}
	sfe, sidx := m.pickFetchStream()
	if sfe == nil {
		return
	}
	for fetched := 0; fetched < m.cfg.FetchWidth && !m.fetchQ.Full(); {
		var in *trace.Rec
		var seq uint64
		if sfe.havePending {
			in, seq = &sfe.pendingRec, sfe.pendingSeq
			sfe.havePending = false
		} else {
			if sfe.streamDone {
				return
			}
			var err error
			if in, seq, err = sfe.next(); in == nil {
				if err != nil {
					m.err = err
				}
				sfe.streamDone = true
				return
			}
			line := (in.PC + sfe.off) >> m.lineShift
			if !sfe.haveFetchLine || line != sfe.lastFetchLine {
				lat := m.mem.InstFetch(in.PC + sfe.off)
				m.cov.ILat += uint64(lat)
				sfe.lastFetchLine = line
				sfe.haveFetchLine = true
				if lat > m.cfg.Mem.L1I.HitLatency {
					// Miss: the line arrives later; hold the
					// instruction and resume then.
					sfe.hold(in, seq)
					sfe.fetchResumeAt = m.now + uint64(lat)
					return
				}
			}
		}
		var eff uint64
		if in.Class.IsMem() {
			eff = in.Addr + sfe.off
		}
		fe, _ := m.fetchQ.PushRef() // never full: guarded by the loop condition
		*fe = fetchEntry{
			seq:       seq,
			effAddr:   eff,
			readyAt:   m.now + 1 + uint64(m.cfg.SteerLatency),
			src:       in.Src(),
			dest:      in.Dest(),
			class:     in.Class,
			numSrcs:   in.NumSrcs(),
			writesReg: in.WritesReg(),
			stream:    sidx,
		}
		fetched++
		sfe.inFlight++
		if in.Class.IsBranch() {
			taken := in.Taken()
			tgt := in.Addr
			if taken {
				tgt += sfe.off
			}
			fe.mispredict = m.pred.Update(in.PC+sfe.off, taken, tgt)
			m.cov.Branches++
			if fe.mispredict {
				m.cov.Mispredicts++
				sfe.fetchBlocked = true
				return
			}
			if taken {
				return // fetch group ends at a taken branch
			}
		}
	}
}

// next pulls the stream's next instruction as a packed record plus its
// sequence number: decoded by a materialized replay's cursor, through a
// staging record otherwise. A nil record means the stream ended; err is then set
// unless it ended cleanly.
func (sfe *streamFE) next() (rec *trace.Rec, seq uint64, err error) {
	if sfe.replay != nil {
		rec, seq = sfe.replay.NextRec()
		return rec, seq, nil
	}
	v, err := sfe.stream.Next()
	if err != nil {
		if errors.Is(err, trace.ErrEnd) {
			err = nil
		}
		return nil, 0, err
	}
	sfe.scratchRec = trace.MakeRec(&v)
	return &sfe.scratchRec, v.Seq, nil
}

// hold parks a fetched instruction until the stream may fetch again.
func (sfe *streamFE) hold(rec *trace.Rec, seq uint64) {
	sfe.pendingRec, sfe.pendingSeq = *rec, seq
	sfe.havePending = true
}
