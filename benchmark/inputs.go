package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/workload"
)

// Inputs are a pure function of (seed, scale). Seed 0 uses the bare
// program names, whose results the committed goldens pin; seed k > 0
// re-seeds every stream with 1000k+i, so a claim can be checked on
// instruction streams nobody looked at while writing the change.

// seeded appends the per-seed stream seed to a program name.
func seeded(program string, seed uint64, i int) string {
	if seed == 0 {
		return program
	}
	return fmt.Sprintf("%s@%d", program, 1000*seed+uint64(i))
}

// suitePrograms is the 26-program suite under the seed.
func suitePrograms(seed uint64) []string {
	names := workload.Names()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = seeded(n, seed, i)
	}
	return out
}

// fig6Requests is the Figure-6 grid: ten Table 3 configurations × the
// suite. service_sweep submits exactly these requests over HTTP.
func fig6Requests(seed uint64, sz sizes) ([]harness.Request, error) {
	return harness.Expand(harness.PaperConfigs(), suitePrograms(seed), sz.gridInsts, sz.gridWarm)
}

// mixRequests is the unique_mixes grid: one-, two- and four-stream
// synthetic workloads, every stream with its own seed so no trace is
// shared between workloads, each on the headline ring/conv pair. Streams
// alternate between the synth-random family and a fixed 16 MB working
// set (far beyond the modelled L2), so both synth entry points generate.
func mixRequests(seed uint64, sz sizes) ([]harness.Request, error) {
	next := 1000*seed + 1 // never 0: @0 would mean the program's own seed
	stream := func() string {
		prog := "synth-random"
		if next%2 == 0 {
			prog = "synth(ws=16M,stride=0.3,ilp=4)"
		}
		s := fmt.Sprintf("%s@%d", prog, next)
		next++
		return s
	}
	var specs []string
	for k, streams := range []int{1, 2, 4} {
		for i := 0; i < sz.mixes[k]; i++ {
			spec := stream()
			for j := 1; j < streams; j++ {
				spec += "+" + stream()
			}
			specs = append(specs, spec)
		}
	}
	cfgs := []core.Config{
		core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		core.MustPaperConfig(core.ArchConv, 8, 2, 1),
	}
	return harness.Expand(cfgs, specs, sz.mixInsts, sz.mixWarm)
}

// requestedInsts is the instruction volume the requests name: every
// stream's measured budget plus its warm-up share.
func requestedInsts(reqs []harness.Request) uint64 {
	var n uint64
	for _, r := range reqs {
		for _, b := range harness.StreamBudgets(r.Workload, r.Insts, r.Warmup) {
			n += b
		}
	}
	return n
}

// exploreAxes is the 64-candidate space of explore_funnel.
const exploreAxes = "arch=ring,conv;clusters=2,4,8,16;buses=1..2;iw=1..2;hop=1..2"

// exploreInputs is the exploration's space and program suite: two
// integer and two FP programs with clearly different memory behaviour.
func exploreInputs(seed uint64) (dse.Space, []string, error) {
	axes, err := dse.ParseAxes(exploreAxes)
	if err != nil {
		return dse.Space{}, nil, err
	}
	progs := []string{"gcc", "mcf", "swim", "art"}
	for i := range progs {
		progs[i] = seeded(progs[i], seed, i)
	}
	return dse.Space{Base: core.MustPaperConfig(core.ArchRing, 8, 2, 1), Axes: axes}, progs, nil
}

// hotOrder is the order the hot phase resubmits requests in: n draws
// from [0, members), shuffled by the seed.
func hotOrder(seed uint64, members, n int) []int {
	r := rand.New(rand.NewSource(int64(seed) + 1))
	out := make([]int, n)
	for i := range out {
		out[i] = i % members
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
