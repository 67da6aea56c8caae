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
	s := m.evHead[slot]
	if s == noSlot {
		return
	}
	m.evHead[slot] = noSlot
	for ; s != noSlot; s = m.rob.AtSlot(int(s)).next {
		e := m.rob.AtSlot(int(s))
		e.state = robDone
		if vid := e.destVal; vid != noValue {
			v := m.vals.get(vid)
			v.produced = true
			vc := m.visibleCluster(int(e.cluster))
			if a := m.vals.availAt(vid, vc); m.now < *a {
				*a = m.now
			}
			if v.waitHead != noWaiter || v.commWaitMask != 0 {
				m.wakeValue(vid, vc)
			}
		}
		if e.class == isa.Branch {
			m.stats.Branches++
			m.streamStats[e.stream%MaxStreams].Branches++
			if e.mispredict {
				m.stats.Mispredicts++
				m.streamStats[e.stream%MaxStreams].Mispredicts++
				fe := &m.fes[e.stream]
				fe.fetchBlocked = false
				fe.fetchResumeAt = m.now + 1
			}
		}
	}
}

// wakeValue resolves the availability cycle of value vid in cluster c for
// everything waiting on it there: issue-queue entries absorb it into their
// ready time and are scheduled into the issue calendar when no unknown
// sources remain, and pending communications sourced in c get their
// eligibility cycle stamped. Waiters for other clusters stay registered.
func (m *Machine) wakeValue(vid valueID, c int) {
	v := m.vals.get(vid)
	avail := *m.vals.availAt(vid, c)
	// Unlink the waiters in cluster c; link points at the link that
	// reaches w.
	link := &v.waitHead
	for w := *link; w != noWaiter; w = *link {
		e := m.rob.AtSlot(int(w >> 1))
		if int(e.cluster) != c {
			link = &e.waitNext[w&1]
			continue
		}
		*link = e.waitNext[w&1]
		if avail > e.readyAt {
			e.readyAt = avail
		}
		e.waitSrcs--
		if e.waitSrcs == 0 {
			m.scheduleIQ(e, w>>1, max(e.readyAt, m.now))
		}
	}
	if bit := uint32(1) << uint(c); v.commWaitMask&bit != 0 {
		v.commWaitMask &^= bit
		q := &m.commQ[c&clMask]
		for i := 0; i < q.Len(); i++ {
			ce := q.At(i)
			if ce.val == vid && ce.eligibleAt == neverAvail {
				ce.eligibleAt = avail
			}
		}
		if avail < m.commNextEligible[c&clMask] {
			m.commNextEligible[c&clMask] = avail
		}
		if avail <= m.now {
			m.commLate |= bit
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
		if e.class.IsMem() {
			le := m.lsq.Peek()
			if le == nil || le.robIdx != m.rob.Head() {
				panic("core: LSQ out of sync with ROB")
			}
			if le.isStore {
				// Committed stores update the data cache off the
				// critical path.
				m.cov.DLat += uint64(m.mem.DataAccess(le.addr, true))
				m.stats.Stores++
				m.streamStats[e.stream%MaxStreams].Stores++
				// Retire the forwarding-map entry if this store is still
				// the youngest for its address, bounding the map to
				// roughly LSQ occupancy (a stale entry would be ignored
				// anyway: issue checks liveness against lsq.Head()).
				if i := m.lastStore.find(le.addr); i >= 0 && m.lastStore.idx[i]-1 == m.lsq.Head() {
					m.lastStore.remove(i)
				}
			} else {
				m.stats.Loads++
				m.streamStats[e.stream%MaxStreams].Loads++
			}
			m.lsq.Drop()
		}
		m.stats.Committed++
		m.streamStats[e.stream%MaxStreams].Committed++
		m.fes[e.stream].inFlight--
		m.lastCommitAt = m.now
		m.rob.Drop()
	}
}

// issueComms lets ready communication instructions compete for bus slots.
// A communication is ready once its value is readable in its source
// cluster; contention is the time from ready to injection. Clusters take
// turns getting first pick so no cluster is structurally favored; only
// clusters with a queued communication are visited.
func (m *Machine) issueComms() {
	if m.commGlobalEligible > m.now {
		return
	}
	if m.cfg.Comm == CommBuses {
		m.fabric.Advance(m.now)
	}
	// Split the clusters with queued communications into those with an
	// eligible entry (due) and the rest, whose bounds seed the global
	// one; no branch depends on the split.
	var due uint32
	g := neverAvail
	for mk := m.commBusy; mk != 0; mk &= mk - 1 {
		c := bits.TrailingZeros32(mk)
		next := m.commNextEligible[c&clMask]
		_, notDue := bits.Sub64(m.now, next, 0) // 1 when next > now
		due |= uint32(notDue^1) << uint(c)
		g = min(g, next|(notDue-1)) // a due cluster's bound is rebuilt below
	}
	// The pass rebuilds the global bound: each due cluster's new bound
	// enters it when the pass reaches the cluster, and wakeups during the
	// pass lower it directly. (A wakeup for a cluster the pass reaches
	// later may leave it below that cluster's final bound; a low bound
	// only costs a pass that finds nothing.)
	m.commGlobalEligible = g
	n := m.cfg.Clusters
	start := int(m.now % uint64(n))
	all := uint32(1)<<uint(n) - 1
	// Rotate the due mask so bit k is cluster (start+k) mod n: visiting
	// its bits lowest-first is the round-robin order from start.
	rot := (due>>uint(start) | due<<uint(n-start)) & all
	m.commLate = 0
	for rot != 0 {
		k := bits.TrailingZeros32(rot)
		rot &= rot - 1
		c := start + k
		if c >= n {
			c -= n
		}
		m.issueCluster(c)
		if late := m.commLate; late != 0 {
			// A value that arrived this cycle (CommInstant) made a
			// cluster due: it joins the pass unless the pass is past it.
			m.commLate = 0
			rot |= (late>>uint(start) | late<<uint(n-start)) & all &^ (2<<uint(k) - 1)
		}
	}
}

// issueCluster lets cluster c's eligible communications compete for bus
// slots (see issueComms).
func (m *Machine) issueCluster(c int) {
	n := m.cfg.Clusters
	q := &m.commQ[c&clMask]
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
		if !ce.haveReady {
			ce.haveReady = true
			ce.readySince = m.now
		}
		dst := int(ce.dst)
		var arrival uint64
		var dist int
		var ok bool
		switch m.cfg.Comm {
		case CommInstant:
			arrival, dist, ok = m.now, int(m.minDist[c*n+dst]), true
		case CommNoContention:
			dist = int(m.minDist[c*n+dst])
			arrival, ok = m.now+uint64(dist*m.cfg.HopLatency), true
		default:
			arrival, dist, ok = m.fabric.TrySend(m.now, c, dst)
		}
		if !ok {
			// Eligible but bus-blocked: retry next cycle.
			nextEligible = m.now
			i++
			continue
		}
		if a := m.vals.availAt(ce.val, dst); arrival < *a {
			*a = arrival
		}
		m.wakeValue(ce.val, dst)
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
	if q.Len() == 0 {
		m.commBusy &^= 1 << uint(c)
	}
	m.commNextEligible[c&clMask] = nextEligible
	m.commGlobalEligible = min(m.commGlobalEligible, nextEligible)
}

// noteRead records that one dispatched read of value vid from cluster c
// has been performed, releasing the communicated copy when it was the
// last (ReleaseOnRead policy only). The home copy is never read-released:
// it carries the architectural state until the register is redefined.
func (m *Machine) noteRead(vid valueID, c int) {
	r := m.vals.readersAt(vid, c)
	if *r == 0 {
		panic("core: operand read without a dispatched reader")
	}
	*r--
	v := m.vals.get(vid)
	bit := uint32(1) << uint(c)
	if *r == 0 && int(v.home) != c && v.allocMask&bit != 0 {
		m.files.Release(c, v.kind)
		v.allocMask &^= bit
		v.copyMask &^= bit
		*m.vals.availAt(vid, c) = neverAvail
	}
}

// multDivUnit returns a free mult/div unit in cluster c on the given side
// (0=int, 1=fp), or -1.
func (m *Machine) multDivUnit(c, side, width int) int {
	if width > 4 {
		width = 4
	}
	for u := 0; u < width; u++ {
		if m.multDivBusyUntil[c&clMask][side][u] <= m.now {
			return u
		}
	}
	return -1
}

// unitFree holds the latency of the classes whose issue needs no
// structural check — their units are pipelined and always free — and 0
// for the rest, which go through tryExecute.
var unitFree = [isa.NumClasses]uint8{
	isa.IntALU: 1,
	isa.Branch: 1,
	isa.FPAdd:  uint8(isa.FPAdd.Latency()),
}

// tryExecute checks structural resources for e issuing in cluster c and,
// when they are available, claims them and returns the execution latency.
// Classes with a unitFree latency never get here.
func (m *Machine) tryExecute(e *robEntry, c int) (lat int, ok bool) {
	switch e.class {
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
		m.multDivBusyUntil[c&clMask][0][u] = m.now + uint64(lat)
		return lat, true
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
		m.multDivBusyUntil[c&clMask][1][u] = m.now + uint64(lat)
		return lat, true
	case isa.Store:
		// Stores issue once address and data operands are ready; the
		// cache write happens at commit.
		m.lsq.AtSlot(int(e.lsqSlot)).issued = true
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
	if dep := e.depLSQ; dep != 0 && dep-1 >= m.lsq.Head() {
		if !m.lsq.AtAbs(dep - 1).issued {
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
	dlat := m.mem.DataAccess(m.lsq.AtSlot(int(e.lsqSlot)).addr, false)
	m.cov.DLat += uint64(dlat)
	return 1 + 2*transit + dlat, true
}

// issueSide walks one cluster's ready set (one side) oldest-first from
// the ROB head's slot, issuing up to the width, and returns the NREADY
// bookkeeping: ready-but-width-blocked entries and the slots actually
// used. Every entry in the set has its operands readable — waiting
// instructions never reach it — so the only per-entry work is the
// structural check.
func (m *Machine) issueSide(side, c, width int) (surplus, issued int) {
	q := &m.iq[side][c&clMask]
	nw := m.robWords
	words := m.readyBits[side][c*nw : c*nw+nw]
	hs := m.rob.Slot(m.rob.Head())
	// left counts the ready entries not yet visited: the scan stops at
	// the last one instead of walking the set's remaining words.
	left := q.ready
	// The head's word is visited twice: first its slots from hs up, and
	// after the wrap its slots below hs.
	w := hs >> 6
	word := words[w] &^ (1<<uint(hs&63) - 1)
	for k := 0; k <= nw; {
		for ; word != 0; word &= word - 1 {
			left--
			b := bits.TrailingZeros64(word)
			s := w<<6 | b
			e := m.rob.AtSlot(s)
			lat, ok := int(unitFree[e.class%isa.NumClasses]), true
			if lat == 0 {
				lat, ok = m.tryExecute(e, c)
			}
			if ok {
				e.state = robIssued
				if m.cfg.Copies == ReleaseOnRead {
					for i := 0; i < int(e.numSrcs); i++ {
						m.noteRead(e.srcVals[i], c)
					}
				}
				m.schedule(e, robSlot(s), m.now+uint64(lat))
				words[w] &^= 1 << uint(b)
				if issued++; issued == width {
					// Every entry not yet visited is ready but
					// width-blocked.
					surplus = left
					left = 0
				}
			}
			if left == 0 {
				q.ready -= issued
				q.count -= issued
				m.readyCount -= issued
				return surplus, issued
			}
		}
		if k++; k > nw {
			break
		}
		if w++; w == nw {
			w = 0
		}
		word = words[w]
		if k == nw {
			word &= 1<<uint(hs&63) - 1
		}
	}
	panic("core: ready set count out of sync")
}

// issue merges the entries whose operands became readable this cycle into
// their ready sets, then runs the per-cluster select logic and
// accumulates the NREADY workload-imbalance figure: ready instructions
// beyond their cluster's issue width that idle slots elsewhere could have
// absorbed, computed per side (an integer instruction cannot use an FP
// slot).
func (m *Machine) issue() {
	slot := m.now % eventHorizon
	if s := m.wakeHead[slot]; s != noSlot {
		m.wakeHead[slot] = noSlot
		nw := m.robWords
		for ; s != noSlot; s = m.rob.AtSlot(int(s)).next {
			e := m.rob.AtSlot(int(s))
			side, c := sideOf(e.class), int(e.cluster)
			m.readyBits[side][c*nw+int(s>>6)] |= 1 << uint(s&63)
			m.iq[side][c&clMask].ready++
			m.readyMask[side] |= 1 << uint(c)
			m.readyCount++
		}
	}
	// Both calendars' lists for this cycle are drained now (writeback
	// took the completions), and nothing schedules into them later in
	// the cycle.
	m.calBusy[slot/64] &^= 1 << (slot % 64)
	if m.readyCount == 0 {
		// Nothing ready anywhere: no issue and no NREADY surplus (idle
		// slots without surplus contribute nothing to the imbalance).
		return
	}
	// Only clusters with a non-empty ready set are visited; every slot
	// of a skipped cluster is idle, so idle = total width - issued.
	var nready uint64
	for side, width := range [2]int{m.cfg.IssueInt, m.cfg.IssueFP} {
		var sur, iss int
		for mk := m.readyMask[side]; mk != 0; mk &= mk - 1 {
			c := bits.TrailingZeros32(mk)
			s, is := m.issueSide(side, c, width)
			sur += s
			iss += is
			if m.iq[side][c&clMask].ready == 0 {
				m.readyMask[side] &^= 1 << uint(c)
			}
		}
		r := uint64(min(sur, m.cfg.Clusters*width-iss))
		if side == sideInt {
			m.stats.NReadyInt += r
		} else {
			m.stats.NReadyFP += r
		}
		nready += r
	}
	m.stats.NReady += nready
}

// choose asks the machine's steering policy for the request's cluster.
func (m *Machine) choose(req *steering.Request) int {
	switch m.steer {
	case steerRing:
		return m.ring.Choose(req)
	case steerConv:
		return m.conv.Choose(req)
	}
	return m.ssa.Choose(req)
}

// dispatch renames, steers and inserts instructions into the back end, in
// order, up to the dispatch width, stalling at the first instruction whose
// chosen cluster lacks a resource (paper Section 3.1: "if the chosen
// cluster is full, then the dispatch stage is stalled").
func (m *Machine) dispatch() {
	for n := 0; n < m.cfg.DispatchWidth; n++ {
		fe := m.fetchQ.Peek()
		if fe == nil {
			m.stats.StallFetchMt++
			return
		}
		if fe.readyAt > m.now {
			return
		}
		if stall := m.dispatchOne(fe, false); stall != nil {
			*stall++
			return
		}
	}
}

// dispatchOne is the dispatch of fe, the fetch-queue head (which must be
// past its decode/steer latency), in one pass: it renames each source
// once, steers, checks every resource the dispatch needs, and then claims
// them — the ROB slot, registers, communications, the LSQ and the wakeup
// structures. It returns the stats counter of the stall that blocks the
// head, or nil once the head has dispatched. With probe set it stops
// before claiming anything, so it mutates nothing — except through Choose,
// which advances SSA's round-robin state (the idle-cycle fast-forward
// therefore only probes Ring and Conv machines).
// The check order is load-bearing: Ring and Conv test ROB/LSQ before
// steering (a full-ROB cycle skips renaming entirely), SSA after, so its
// in-Choose state advances exactly once per stalled cycle.
func (m *Machine) dispatchOne(fe *fetchEntry, probe bool) *uint64 {
	ssa := m.steer == steerSSA
	if !ssa {
		if m.rob.Full() {
			return &m.stats.StallROB
		}
		if fe.class.IsMem() && m.lsq.Full() {
			return &m.stats.StallLSQ
		}
	}
	// Rename sources into a stack-local request (Choose reads it and keeps
	// nothing, so it does not escape). Consumers never read Ops beyond
	// NumOps.
	var req steering.Request
	nops := int(fe.numSrcs) & 3
	var srcIDs [2]valueID
	for i := 0; i < nops && i < 2; i++ {
		vid := m.renameMap[fe.src[i]&(2*isa.NumArchRegs-1)]
		v := m.vals.get(vid)
		req.Ops[i] = steering.Operand{Mask: v.copyMask, Pending: !v.produced}
		srcIDs[i] = vid
	}
	req.NumOps = nops
	req.Kind = isa.IntReg
	if fe.dest != noReg {
		req.Kind = regKind(fe.dest)
	}

	cl := m.choose(&req)

	if ssa {
		if m.rob.Full() {
			return &m.stats.StallROB
		}
		if fe.class.IsMem() && m.lsq.Full() {
			return &m.stats.StallLSQ
		}
	}
	side := &m.iq[sideOf(fe.class)][cl&clMask]
	if side.count >= side.cap {
		return &m.stats.StallIQ
	}

	// Discover register and comm-queue needs (checked before any
	// allocation so a stall leaks nothing): the destination's register in
	// the cluster that receives the result, and one copy register in cl
	// per operand that must be communicated there, sourced from the
	// nearest cluster holding a copy.
	home := m.visibleCluster(cl)
	var commOp, commSrc [2]int
	var copies [2]int // copy registers needed in cl, per namespace
	nComms := 0
	for i := 0; i < nops && i < 2; i++ {
		if i > 0 && srcIDs[1] == srcIDs[0] {
			continue // both operands read the same value: one comm suffices
		}
		mask := req.Ops[i].Mask
		if mask == 0 || mask&(1<<uint(cl)) != 0 {
			continue // readable in cl (or everywhere); no comm
		}
		commOp[nComms], commSrc[nComms] = i, m.nearestCopy(mask, cl)
		nComms++
		copies[regKind(fe.src[i])&1]++
	}
	if fe.dest != noReg {
		kind := regKind(fe.dest)
		need := 1
		if home == cl {
			// Conv writes its result into cl's own file, which the
			// copies of the same namespace also need.
			need += copies[kind&1]
			copies[kind&1] = 0
		}
		if m.files.Free(home, kind) < need {
			return &m.stats.StallRegs
		}
	}
	for kind, n := range copies {
		if n > 0 && m.files.Free(cl, isa.RegFileKind(kind)) < n {
			return &m.stats.StallRegs
		}
	}
	for i := 0; i < nComms; i++ {
		needed := 1
		if i == 1 && commSrc[0] == commSrc[1] {
			needed = 2
		}
		if m.commQ[commSrc[i]&clMask].Free() < needed {
			return &m.stats.StallComm
		}
	}
	if probe {
		return nil
	}

	// Every check passed: claim the resources. The ROB slot is filled
	// field by field.
	clBit := uint32(1) << uint(cl)
	countReads := m.cfg.Copies == ReleaseOnRead
	robIdx := m.rob.Tail()
	slot := robSlot(m.rob.Slot(robIdx))
	ep, _ := m.rob.PushRef() // never full: checked above
	ep.seq = fe.seq
	ep.srcVals = srcIDs
	ep.destVal = noValue
	ep.prevVal = noValue
	ep.depLSQ = 0
	ep.class = fe.class
	ep.cluster = int8(cl)
	ep.state = robWaiting
	ep.stream = fe.stream
	ep.numSrcs = int8(nops)
	ep.mispredict = fe.mispredict

	for i := 0; i < nComms; i++ {
		src := commSrc[i]
		vid := srcIDs[commOp[i]&1]
		v := m.vals.get(vid)
		if !m.files.Alloc(cl, v.kind) {
			panic("core: copy register vanished after check")
		}
		v.copyMask |= clBit
		v.allocMask |= clBit
		if countReads {
			*m.vals.readersAt(vid, src)++ // the communication itself reads at its source
		}
		a := *m.vals.availAt(vid, src)
		if a == neverAvail {
			v.commWaitMask |= 1 << uint(src)
		}
		if a < m.commNextEligible[src&clMask] {
			m.commNextEligible[src&clMask] = a
		}
		if a < m.commGlobalEligible {
			m.commGlobalEligible = a
		}
		if !m.commQ[src&clMask].Push(commEntry{val: vid, src: int8(src), dst: int8(cl), eligibleAt: a}) {
			panic("core: comm queue slot vanished after check")
		}
		m.commBusy |= 1 << uint(src)
		m.stats.Comms++
		m.streamStats[fe.stream%MaxStreams].Comms++
	}

	// Insert into the issue queue: resolve each source's availability
	// cycle in cl now, registering a wakeup on values whose cycle is
	// still unknown. Entries with fully known timing go straight into
	// the issue calendar and are never rescanned while they wait.
	var readyAt uint64
	var waitSrcs int8
	for i := 0; i < nops && i < 2; i++ {
		vid := srcIDs[i]
		if countReads {
			*m.vals.readersAt(vid, cl)++
		}
		if a := *m.vals.availAt(vid, cl); a == neverAvail {
			v := m.vals.get(vid)
			ep.waitNext[i] = v.waitHead
			v.waitHead = slot<<1 | int32(i)
			waitSrcs++
		} else if a > readyAt {
			readyAt = a
		}
	}
	ep.readyAt = readyAt
	ep.waitSrcs = waitSrcs

	if fe.dest != noReg {
		kind := regKind(fe.dest)
		if !m.files.Alloc(home, kind) {
			panic("core: destination register vanished after check")
		}
		vid := m.vals.alloc(kind)
		v := m.vals.get(vid)
		v.copyMask = 1 << uint(home)
		v.allocMask = 1 << uint(home)
		v.home = int8(home)
		ep.destVal = vid
		r := fe.dest & (2*isa.NumArchRegs - 1)
		ep.prevVal = m.renameMap[r]
		m.renameMap[r] = vid
	}

	if fe.class.IsMem() {
		isStore := fe.class == isa.Store
		lsqIdx, _ := m.lsq.Push(lsqEntry{robIdx: robIdx, addr: fe.effAddr, isStore: isStore}) // never full: checked above
		ep.lsqSlot = int32(m.lsq.Slot(lsqIdx))
		if isStore {
			m.lastStore.put(fe.effAddr, lsqIdx)
		} else if dep, found := m.lastStore.get(fe.effAddr); found {
			// The youngest older store to this address; all older
			// same-address stores commit before it, so if it has left
			// the LSQ by issue time the load goes to the cache.
			ep.depLSQ = dep + 1
		}
	}

	side.count++
	if waitSrcs == 0 {
		// Already readable: eligible from the next cycle at the earliest
		// (issue precedes dispatch within a cycle).
		m.scheduleIQ(ep, slot, max(readyAt, m.now+1))
	}

	if m.steer == steerConv {
		m.conv.OnDispatch(cl)
	}
	m.stats.Dispatched++
	m.streamStats[fe.stream%MaxStreams].Dispatched++
	m.stats.PerCluster[cl&clMask]++
	if u := uint64(m.files.TotalUsed(isa.IntReg)); u > m.stats.PeakRegsInt {
		m.stats.PeakRegsInt = u
	}
	if u := uint64(m.files.TotalUsed(isa.FPReg)); u > m.stats.PeakRegsFP {
		m.stats.PeakRegsFP = u
	}
	m.fetchQ.Drop()
	return nil
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
		// The entry is filled field by field in its queue slot (never
		// full: guarded by the loop condition).
		fe, _ := m.fetchQ.PushRef()
		fe.seq = seq
		fe.effAddr = eff
		fe.readyAt = m.now + 1 + uint64(m.cfg.SteerLatency)
		fe.class = in.Class
		fe.stream = sidx
		fe.mispredict = false
		src := in.Src()
		n := uint8(0)
		for i := uint8(0); i < in.NumSrcs() && i < 2; i++ {
			if !src[i].IsZero() {
				fe.src[n] = flatReg(src[i])
				n++
			}
		}
		fe.numSrcs = n
		fe.dest = noReg
		if in.WritesReg() {
			fe.dest = flatReg(in.Dest())
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
