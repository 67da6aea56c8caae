package predict

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"

	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenProfiles are the SHA-256 digests of Profile.Encode() for the
// explore_funnel programs at the funnel's 275,000-instruction window and
// for two synthetic families at explicit seeds. A change to any counter —
// one hop bucket of one steering twin included — changes a digest, and
// with it every profile cached on disk under an unchanged predict.Key.
var goldenProfiles = []struct {
	program string
	seed    uint64
	sha256  string
}{
	{"gcc", 0, "71bcc8cceac4160a2e96bc522d00a8141f4db26e371f6d78d75f6fcbdd43125c"},
	{"mcf", 0, "d11c582ca632e9c65f2d7eff481158defe83999f37edd8f17758d6b3cf6b48dd"},
	{"swim", 0, "ac054c98c53f6b11b4838378ffe62d036b3498df57e27c2228cc45d504f550a0"},
	{"art", 0, "22b80c7a3e291e7e985463949a14b049172090c4b9bccd12a91d814f236d46af"},
	{"synth-random", 7, "53f8a1c51ef0c7d6dd72db2a5f8c47b559b021b59e8f4e054134a6f5ffbfb8b8"},
	{"synth(ws=16M,stride=0.3,ilp=4)", 8, "0b0012bdcdca9ad77b8b2a35c4fc368bc7f3eb26315a99e3ba6d213b80a4f6f8"},
}

// TestProfileGolden pins the encoded profiles byte for byte.
func TestProfileGolden(t *testing.T) {
	const n = 275_000
	for _, g := range goldenProfiles {
		b, err := summarize(t, g.program, g.seed, n).Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("%s@%d at %d instructions: profile sha256 %s, want %s", g.program, g.seed, n, got, g.sha256)
		}
	}
}

// refTwin is the steering twin as it was before it kept its minimum
// incrementally: it rescans the load counters for the minimum on every
// instruction, computes ring distances with %, and weighs its candidates
// through closures. It is the oracle TestSteerTwinsMatchReference holds
// steerState to.
type refTwin struct {
	clusters int
	ring     bool
	home     [2][isa.NumArchRegs]uint8
	load     [16]uint32
	tick     uint32
	comms    uint64
	hops     []uint64
}

func (st *refTwin) observe(in *isa.Inst, srcs []isa.Reg) {
	c := st.clusters
	fwd := func(a, b, n int) int { return ((b-a)%n + n) % n }
	st.tick++
	if st.tick >= steerWindow {
		st.tick = 0
		for i := 0; i < c; i++ {
			st.load[i] >>= 1
		}
	}
	minLoad := st.load[0]
	for i := 1; i < c; i++ {
		if st.load[i] < minLoad {
			minLoad = st.load[i]
		}
	}
	cost := func(cl int) uint32 {
		var comm uint32
		for _, r := range srcs {
			if h := int(st.home[r.Kind][r.Idx]); h != cl {
				comm += uint32(fwd(h, cl, c))
			}
		}
		return comm*steerBalance + st.load[cl] - minLoad
	}
	chosen, bestCost := -1, uint32(0)
	consider := func(cl int) {
		if cl == chosen {
			return
		}
		if co := cost(cl); chosen < 0 || co < bestCost {
			chosen, bestCost = cl, co
		}
	}
	for _, r := range srcs {
		consider(int(st.home[r.Kind][r.Idx]))
	}
	for i := 0; i < c; i++ {
		if st.load[i] == minLoad {
			consider(i)
			break
		}
	}
	for _, r := range srcs {
		if h := int(st.home[r.Kind][r.Idx]); h != chosen {
			st.comms++
			st.hops[fwd(h, chosen, c)-1]++
		}
	}
	st.load[chosen]++
	if in.WritesReg() {
		res := chosen
		if st.ring {
			res = (chosen + 1) % c
		}
		st.home[in.Dest.Kind][in.Dest.Idx] = uint8(res)
	}
}

// TestSteerTwinsMatchReference: on random instruction streams — few
// registers, so chains, ties between equally loaded clusters and operands
// sharing a home are common — every steering twin reports the same
// communications and hop histogram as refTwin.
func TestSteerTwinsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		regs := 2 + r.Intn(12)
		reg := func() isa.Reg {
			idx := uint8(r.Intn(regs))
			if r.Intn(8) == 0 {
				idx = isa.ZeroReg
			}
			return isa.Reg{Kind: isa.RegFileKind(r.Intn(2)), Idx: idx}
		}
		s := NewSummarizer("random", 0)
		var ref []*refTwin
		for _, ring := range []bool{true, false} {
			for _, c := range ClusterCounts {
				ref = append(ref, &refTwin{clusters: c, ring: ring, hops: make([]uint64, c-1)})
			}
		}
		for i := 0; i < 20_000; i++ {
			in := isa.Inst{Class: isa.IntALU, NumSrcs: uint8(r.Intn(3)), HasDest: r.Intn(4) != 0, Dest: reg()}
			for k := range in.NumSrcs {
				in.Src[k] = reg()
			}
			s.Observe(&in)
			var buf [2]isa.Reg
			srcs := in.SrcRegs(&buf)
			for _, st := range ref {
				st.observe(&in, srcs)
			}
		}
		p := s.Finish()
		for i, st := range ref {
			got := p.Ring
			if !st.ring {
				got = p.Conv
			}
			want := SteerProfile{Clusters: st.clusters, Comms: st.comms, Hops: st.hops}
			if g := got[i%len(ClusterCounts)]; !reflect.DeepEqual(g, want) {
				t.Fatalf("seed %d, %d registers: twin %+v, reference %+v", seed, regs, g, want)
			}
		}
	}
}

// funnelPrograms are the programs explore_funnel profiles.
var funnelPrograms = []string{"gcc", "mcf", "swim", "art"}

// BenchmarkSummarize measures the profiler alone: each funnel program's
// first 275,000 instructions, materialized once outside the timer, are
// summarized from a view of the packed store, per instruction.
func BenchmarkSummarize(b *testing.B) {
	const n = 275_000
	for _, prog := range funnelPrograms {
		b.Run(prog, func(b *testing.B) {
			stream, err := workload.NewStream(prog, 0)
			if err != nil {
				b.Fatal(err)
			}
			var p trace.Packed
			p.Reserve(n)
			if err := p.Extend(stream, n); err != nil {
				b.Fatal(err)
			}
			view := p.View(n)
			for b.Loop() {
				if _, err := Summarize(prog, 0, view.Replay(), n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inst")
		})
	}
}
