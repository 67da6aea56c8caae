package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Multi-programmed quality metrics, following the standard definitions
// (Eyerman & Eeckhout): each stream's slowdown is its single-stream IPC
// over its IPC inside the mix, system throughput (STP) sums the inverse
// slowdowns, average normalized turnaround time (ANTT) averages them,
// and fairness is the worst slowdown ratio between any two streams.
//
// The single-stream baselines are ordinary Requests (see
// BaselineRequests), so studies fetch them through the content-addressed
// result store: across a sweep of mixes the baselines are cache hits,
// never re-simulations.

// MixMetrics summarizes one multi-programmed run against its streams'
// single-stream baselines.
type MixMetrics struct {
	// Slowdowns[i] is stream i's normalized turnaround time:
	// IPC_single(i) / IPC_mix(i). 1.0 = no interference.
	Slowdowns []float64
	// STP is system throughput, Σ_i IPC_mix(i)/IPC_single(i), in
	// [0, streams]: the number of single-stream-equivalent programs the
	// machine completes per unit time.
	STP float64
	// ANTT is the mean slowdown (lower is better, 1.0 is ideal).
	ANTT float64
	// Fairness is min slowdown / max slowdown in (0, 1]: 1.0 means every
	// stream suffers equally, small values mean starvation.
	Fairness float64
}

// Fairness computes the mix metrics for a multi-programmed run given
// each stream's single-stream baseline IPC, in stream order.
func Fairness(mix core.Stats, baselineIPC []float64) (MixMetrics, error) {
	n := len(mix.PerStream)
	if n == 0 {
		return MixMetrics{}, fmt.Errorf("harness: fairness metrics need a multi-stream run (no per-stream stats)")
	}
	if len(baselineIPC) != n {
		return MixMetrics{}, fmt.Errorf("harness: %d baselines for %d streams", len(baselineIPC), n)
	}
	m := MixMetrics{Slowdowns: make([]float64, n)}
	minS, maxS := 0.0, 0.0
	for i, ss := range mix.PerStream {
		mixIPC := ss.IPC(mix.Cycles)
		if mixIPC <= 0 {
			return MixMetrics{}, fmt.Errorf("harness: stream %d committed nothing in the mix", i)
		}
		if baselineIPC[i] <= 0 {
			return MixMetrics{}, fmt.Errorf("harness: stream %d baseline IPC %.4f", i, baselineIPC[i])
		}
		s := baselineIPC[i] / mixIPC
		m.Slowdowns[i] = s
		m.STP += 1 / s
		m.ANTT += s
		if i == 0 || s < minS {
			minS = s
		}
		if i == 0 || s > maxS {
			maxS = s
		}
	}
	m.ANTT /= float64(n)
	m.Fairness = minS / maxS
	return m, nil
}

// BaselineRequests returns the single-stream requests whose IPCs
// normalize the given multi-programmed request: one per stream, same
// configuration, same per-stream budget and seed, and the request's full
// warm-up (not the share Execute gives each stream of a mix), so through
// the content-addressed store a stream's baseline is shared by every mix
// that contains it, whatever the mix's stream count.
func BaselineRequests(req Request) []Request {
	n := len(req.Workload.Streams)
	out := make([]Request, n)
	for i, s := range req.Workload.Streams {
		out[i] = Request{
			Config:   req.Config,
			Workload: workload.Spec{Streams: []workload.StreamSpec{s}},
			Insts:    req.Insts,
			Warmup:   req.Warmup,
		}
	}
	return out
}
