package core

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// stepCase is one generated input of TestStepEqualsRun: a random valid
// machine over 1-4 synth-random streams.
type stepCase struct {
	cfg     Config
	streams [][]isa.Inst
	packed  bool   // replay the streams through packed cursors
	warmup  uint64 // committed instructions before ResetStats
}

func (c stepCase) String() string {
	return fmt.Sprintf("%s/%s %dclus iw%d/%d %dbus hop%d %s %s iq%d/%d/%d regs%d/%d %d streams packed=%v warm=%d",
		c.cfg.Arch, c.cfg.Steer, c.cfg.Clusters, c.cfg.IssueInt, c.cfg.IssueFP, c.cfg.Buses,
		c.cfg.HopLatency, c.cfg.Comm, c.cfg.Copies, c.cfg.IQInt, c.cfg.IQFP, c.cfg.IQComm,
		c.cfg.RegsInt, c.cfg.RegsFP, len(c.streams), c.packed, c.warmup)
}

// genStepCase draws case i: every field from a generator seeded by i, so a
// failing case reproduces from its index alone.
func genStepCase(t *testing.T, i int) stepCase {
	t.Helper()
	r := rand.New(rand.NewPCG(uint64(i), 0x5eed))
	pick := func(vals ...int) int { return vals[r.IntN(len(vals))] }
	var cfg Config
	for {
		cfg = baseConfig()
		cfg.Arch = ArchKind(r.IntN(2))
		cfg.Steer = SteerKind(0)
		if r.IntN(4) == 0 {
			cfg.Steer = SteerSimple
		}
		cfg.Clusters = 2 + r.IntN(15)
		cfg.IssueInt, cfg.IssueFP = 1+r.IntN(2), 1+r.IntN(2)
		cfg.Buses = 1 + r.IntN(2)
		cfg.HopLatency = 1 + r.IntN(2)
		if r.IntN(8) == 0 {
			cfg.Comm = CommModel(1 + r.IntN(2))
		}
		cfg.Copies = CopyRelease(r.IntN(2))
		cfg.IQInt, cfg.IQFP, cfg.IQComm = pick(4, 8, 16, 32), pick(4, 8, 16, 32), pick(2, 4, 8, 16)
		cfg.RegsInt, cfg.RegsFP = pick(34, 40, 48, 64), pick(34, 40, 48, 64)
		cfg.FetchWidth = pick(2, 4, 8)
		cfg.DispatchWidth = pick(2, 4, 8)
		cfg.CommitWidth = pick(2, 4, 8)
		cfg.FetchQSize = pick(16, 32, 64)
		cfg.ROBSize = pick(32, 64, 128, 256)
		cfg.LSQSize = pick(16, 32, 128)
		cfg.SteerLatency = r.IntN(3)
		cfg.Conv.Threshold = float64(pick(4, 12, 24))
		cfg.Conv.DecayPeriod = pick(8, 64)
		cfg.Name = fmt.Sprintf("case%d", i)
		if cfg.Validate() == nil {
			break
		}
	}
	c := stepCase{cfg: cfg, packed: r.IntN(2) == 0}
	nStreams := 1 + r.IntN(4)
	total := 0
	for s := 0; s < nStreams; s++ {
		n := 800 + r.IntN(2400)
		gen, err := workload.NewStream("synth-random", r.Uint64N(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		insts, err := trace.Collect(trace.NewLimit(gen, uint64(n)), n)
		if err != nil {
			t.Fatal(err)
		}
		c.streams = append(c.streams, insts)
		total += n
	}
	c.warmup = uint64(r.IntN(total / 2))
	return c
}

// machine builds a fresh machine over the case's streams.
func (c stepCase) machine(t *testing.T) *Machine {
	t.Helper()
	streams := make([]trace.Stream, len(c.streams))
	for i, insts := range c.streams {
		s := trace.NewSlice(insts)
		if c.packed {
			streams[i] = packSlice(t, s)
		} else {
			streams[i] = s
		}
	}
	m, err := NewMulti(c.cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStepEqualsRun is the kernel's differential oracle. Run promises
// statistics bit-identical to stepping every cycle; on generated inputs —
// synth-random streams × random valid configurations covering 2-16
// clusters, Ring/Conv/SSA steering, 1-2 buses, 1-2 cycle hops, both
// copy-release policies, every communication model and 1-4 streams — a
// bare Step loop, Run, and RunCommitted + ResetStats + Run must agree on
// every Stats field. The stepped side also runs the invariant checker
// after every cycle.
func TestStepEqualsRun(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 60
	}
	for i := 0; i < cases; i++ {
		c := genStepCase(t, i)

		// Stepped, whole run.
		m := c.machine(t)
		chk := newStepChecker(m)
		for !m.Done() {
			if err := m.Step(); err != nil {
				t.Fatalf("case %d (%v): step: %v", i, c, err)
			}
			if err := chk.check(); err != nil {
				t.Fatalf("case %d (%v): cycle %d: %v", i, c, m.Now(), err)
			}
		}
		stepped := m.Stats()
		if err := chk.final(); err != nil {
			t.Fatalf("case %d (%v): %v", i, c, err)
		}

		run, err := c.machine(t).Run(0)
		if err != nil {
			t.Fatalf("case %d (%v): run: %v", i, c, err)
		}
		if !reflect.DeepEqual(stepped, run) {
			t.Fatalf("case %d (%v): Run diverged from stepping:\nstep %+v\nrun  %+v", i, c, stepped, run)
		}

		// Stepped with a warm-up window, against RunCommitted + Run.
		m = c.machine(t)
		for m.Committed() < c.warmup && !m.Done() {
			if err := m.Step(); err != nil {
				t.Fatalf("case %d (%v): warm-up step: %v", i, c, err)
			}
		}
		m.ResetStats()
		for !m.Done() {
			if err := m.Step(); err != nil {
				t.Fatalf("case %d (%v): step: %v", i, c, err)
			}
		}
		steppedWarm := m.Stats()

		m = c.machine(t)
		if err := m.RunCommitted(c.warmup); err != nil {
			t.Fatalf("case %d (%v): warm-up: %v", i, c, err)
		}
		m.ResetStats()
		runWarm, err := m.Run(0)
		if err != nil {
			t.Fatalf("case %d (%v): run: %v", i, c, err)
		}
		if !reflect.DeepEqual(steppedWarm, runWarm) {
			t.Fatalf("case %d (%v): RunCommitted+Run diverged from stepping:\nstep %+v\nrun  %+v", i, c, steppedWarm, runWarm)
		}
	}
}

// stepChecker verifies machine invariants between cycles:
//
//   - in-order commit: each cycle retires exactly the oldest ROB entries,
//     each already issued, and each stream's instructions in sequence order;
//   - register conservation: every cluster's occupied physical registers
//     of each namespace equal the copies the live values hold there;
//   - dataflow: no instruction issues before each source value is
//     produced and readable in its cluster.
type stepChecker struct {
	m *Machine
	// The ROB as it stood before the last step: absolute head index and
	// the entries from the head on.
	head    uint64
	entries []robSnap
	// lastSeq[s] is stream s's last committed sequence number + 1.
	lastSeq   []uint64
	committed uint64
}

// robSnap is the part of a ROB entry the checker compares across a step.
type robSnap struct {
	seq     uint64
	stream  uint8
	state   robState
	cluster int
	srcs    [2]valueID
	nsrcs   int
	// avail[s] is source s's availability cycle in cluster, for entries
	// still waiting to issue.
	avail [2]uint64
}

func newStepChecker(m *Machine) *stepChecker {
	k := &stepChecker{m: m, lastSeq: make([]uint64, m.NumStreams())}
	k.snapshot()
	return k
}

// snapshot records the ROB from the head on.
func (k *stepChecker) snapshot() {
	m := k.m
	k.head = m.rob.Head()
	k.entries = k.entries[:0]
	for i := 0; i < m.rob.Len(); i++ {
		e := m.rob.AtAbs(k.head + uint64(i))
		snap := robSnap{
			seq: e.seq, stream: e.stream, state: e.state, cluster: int(e.cluster),
			srcs: e.srcVals, nsrcs: int(e.numSrcs),
		}
		if snap.state == robWaiting {
			for s := 0; s < snap.nsrcs; s++ {
				if vid := snap.srcs[s]; vid != noValue {
					snap.avail[s] = valueAvail(m, vid, snap.cluster)
				}
			}
		}
		k.entries = append(k.entries, snap)
	}
	k.committed = m.stats.Committed
}

// check compares the machine after one Step against the snapshot taken
// before it, then re-snapshots.
func (k *stepChecker) check() error {
	m := k.m
	issueCycle := m.Now() - 1 // the cycle the step simulated

	// In-order commit.
	retired := m.stats.Committed - k.committed
	if m.stats.Committed < k.committed {
		retired = m.stats.Committed // ResetStats is not used on the checked side
	}
	if got := m.rob.Head() - k.head; got != retired {
		return fmt.Errorf("ROB head advanced %d for %d commits", got, retired)
	}
	if retired > uint64(m.cfg.CommitWidth) {
		return fmt.Errorf("%d commits exceed the commit width", retired)
	}
	for j := uint64(0); j < retired; j++ {
		s := k.entries[j]
		if s.state == robWaiting {
			return fmt.Errorf("seq %d committed without issuing", s.seq)
		}
		if k.lastSeq[s.stream] != 0 && s.seq != k.lastSeq[s.stream] {
			return fmt.Errorf("stream %d committed seq %d, want %d", s.stream, s.seq, k.lastSeq[s.stream])
		}
		k.lastSeq[s.stream] = s.seq + 1
	}

	// Dataflow: entries that issued during the step.
	for j := int(retired); j < len(k.entries); j++ {
		before := k.entries[j]
		if before.state != robWaiting {
			continue
		}
		e := m.rob.AtAbs(k.head + uint64(j))
		if e.state == robWaiting {
			continue
		}
		if int(e.cluster) != before.cluster {
			return fmt.Errorf("seq %d changed cluster", before.seq)
		}
		for s := 0; s < before.nsrcs; s++ {
			vid := before.srcs[s]
			if vid == noValue {
				continue
			}
			if err := k.checkReadable(vid, before.cluster, before.avail[s], issueCycle); err != nil {
				return fmt.Errorf("seq %d source %d: %v", before.seq, s, err)
			}
		}
	}

	if err := k.checkRegisters(); err != nil {
		return err
	}
	k.snapshot()
	return nil
}

// checkReadable verifies that value vid was produced and readable in
// cluster c by cycle now; before is its availability there when the cycle
// began. Under ReleaseOnRead the reading instruction itself may have
// released the copy during the cycle, so a copy readable when the cycle
// began, or one that arrived during it (writeback and communication
// arrivals happen at the current cycle), is accepted.
func (k *stepChecker) checkReadable(vid valueID, c int, before, now uint64) error {
	v := k.m.vals.get(vid)
	if !v.live {
		return fmt.Errorf("value %d read after release", vid)
	}
	if !v.produced {
		return fmt.Errorf("value %d read before it was produced", vid)
	}
	a := valueAvail(k.m, vid, c)
	if a == neverAvail && k.m.cfg.Copies == ReleaseOnRead && int(v.home) != c {
		a = min(before, now)
	}
	if a == neverAvail {
		return fmt.Errorf("value %d never readable in cluster %d", vid, c)
	}
	if a > now {
		return fmt.Errorf("value %d readable in cluster %d at %d, issued at %d", vid, c, a, now)
	}
	return nil
}

// checkRegisters verifies per-cluster register conservation.
func (k *stepChecker) checkRegisters() error {
	m := k.m
	var held [16][2]int
	for id := range m.vals.vals {
		v := &m.vals.vals[id]
		if !v.live {
			continue
		}
		for mk := v.allocMask; mk != 0; mk &= mk - 1 {
			held[bits.TrailingZeros32(mk)][v.kind]++
		}
	}
	for c := 0; c < m.cfg.Clusters; c++ {
		for kind := 0; kind < 2; kind++ {
			if used := m.files.Used(c, isa.RegFileKind(kind)); used != held[c][kind] {
				return fmt.Errorf("cluster %d kind %d: %d registers used, live values hold %d", c, kind, used, held[c][kind])
			}
		}
	}
	return nil
}

// final verifies the drained machine: every instruction of every stream
// committed, and nothing but the architectural state left allocated.
func (k *stepChecker) final() error {
	m := k.m
	var want uint64
	for i := range m.fes {
		want += uint64(m.fes[i].stream.(interface{ Len() int }).Len())
	}
	if m.stats.Committed != want {
		return fmt.Errorf("committed %d of %d instructions", m.stats.Committed, want)
	}
	return k.checkRegisters()
}

// valueAvail is the first cycle value vid is readable in cluster c.
func valueAvail(m *Machine, vid valueID, c int) uint64 { return *m.vals.availAt(vid, c) }
