package harness

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// Sampling configures SMARTS-style interval sampling for one request:
// the machine alternates functional fast-forward spans (caches, branch
// predictor, and per-stream fetch state stay warm; nothing is timed)
// with detailed windows measured by the full out-of-order model. Each
// interval of Interval instructions splits into a fast-forward span of
// Interval-Warm-Window, a detailed warm-up of Warm (pipeline and queue
// state refills; not measured), and a measured window of Window. The
// zero value means exact simulation.
type Sampling struct {
	// Interval is the instruction period of one sampling unit.
	Interval uint64
	// Window is the measured detailed instruction count per interval.
	Window uint64
	// Warm is the detailed (unmeasured) warm-up preceding each window.
	Warm uint64
}

// DefaultSampling is the tuning used when a request asks for "sampled"
// without explicit parameters, picked by sweeping (interval, window,
// warm) against the exact Figure-6 grid: ~12% of instructions run
// detailed, split to favor the measured window over the warm-up (at a
// fixed detailed budget, 1000 measured + 400 warm beats 800 + 500 —
// the regression estimator benefits more from longer measurements than
// from the extra pipeline warm-up). Measures ~5.4× effective speedup at
// ~1.6% mean IPC error on the paper grid (see docs/performance.md).
var DefaultSampling = Sampling{Interval: 12_000, Window: 1_000, Warm: 400}

// Enabled reports whether sampling is requested (zero value = exact).
func (s Sampling) Enabled() bool { return s != Sampling{} }

// Validate checks the sampling parameters; the zero value is valid.
func (s Sampling) Validate() error {
	switch {
	case !s.Enabled():
		return nil
	case s.Window == 0:
		return fmt.Errorf("harness: sampling window must be positive")
	case s.Warm+s.Window >= s.Interval:
		return fmt.Errorf("harness: sampling interval (%d) must exceed warm+window (%d)",
			s.Interval, s.Warm+s.Window)
	}
	return nil
}

// String renders the canonical fidelity spelling: "exact" or
// "sampled(interval,window,warm)".
func (s Sampling) String() string {
	if !s.Enabled() {
		return "exact"
	}
	return fmt.Sprintf("sampled(%d,%d,%d)", s.Interval, s.Window, s.Warm)
}

// ParseFidelity parses a fidelity knob value: "exact" (or empty) for
// full detailed simulation, "sampled" for DefaultSampling, or
// "sampled(interval,window,warm)" for explicit parameters.
func ParseFidelity(v string) (Sampling, error) {
	switch strings.TrimSpace(v) {
	case "", "exact":
		return Sampling{}, nil
	case "sampled":
		return DefaultSampling, nil
	}
	var iv, w, warm uint64
	if n, err := fmt.Sscanf(strings.TrimSpace(v), "sampled(%d,%d,%d)", &iv, &w, &warm); err == nil && n == 3 {
		sp := Sampling{Interval: iv, Window: w, Warm: warm}
		if err := sp.Validate(); err != nil {
			return Sampling{}, err
		}
		return sp, nil
	}
	return Sampling{}, fmt.Errorf("harness: invalid fidelity %q (legal values: exact, sampled, sampled(interval,window,warm))", v)
}

// SampledInfo reports how a sampled run was measured and how confident
// its extrapolated statistics are. Standard errors are across measured
// windows; the confidence interval is the half-width around the
// estimated IPC that the error-accounting regression gates on: a 99%
// normal interval (2.576 standard errors) plus a 1.5% systematic
// allowance for residual cold-start bias the window warm-up does not
// fully remove.
type SampledInfo struct {
	// Windows is the number of measured detailed windows.
	Windows uint64 `json:"windows"`
	// DetailedInsts counts instructions executed by the detailed model
	// (warm-up, measured windows, and drains); FFInsts counts
	// instructions retired by functional fast-forward.
	DetailedInsts uint64 `json:"detailed_insts"`
	FFInsts       uint64 `json:"ff_insts"`
	// IPCStdErr is the standard error of the per-window IPC estimate;
	// IPCCI is the confidence half-width around the reported IPC.
	IPCStdErr float64 `json:"ipc_stderr"`
	IPCCI     float64 `json:"ipc_ci"`
	// CommsStdErr and HopsStdErr are standard errors of the per-window
	// comms-per-instruction and hops-per-comm estimates.
	CommsStdErr float64 `json:"comms_per_inst_stderr"`
	HopsStdErr  float64 `json:"comm_hops_stderr"`
}

// Process-wide sampled-execution counters, exported through /metrics on
// every node (same pattern as the batch and trace-cache counters).
var (
	sampledRuns          atomic.Uint64
	sampledFFInsts       atomic.Uint64
	sampledDetailedInsts atomic.Uint64
)

// SampledStats is a snapshot of the process-wide sampled counters.
type SampledStats struct {
	// Runs counts completed sampled executions.
	Runs uint64
	// FFInsts and DetailedInsts split the instructions those runs
	// consumed by execution mode.
	FFInsts       uint64
	DetailedInsts uint64
}

// SampledStatsSnapshot returns the process-wide sampled counters.
func SampledStatsSnapshot() SampledStats {
	return SampledStats{
		Runs:          sampledRuns.Load(),
		FFInsts:       sampledFFInsts.Load(),
		DetailedInsts: sampledDetailedInsts.Load(),
	}
}

// driveSampled is the sampled drive strategy: detailed windows alternate
// with functional fast-forward over a prepared machine, and the returned
// Stats are the window measurements extrapolated to the request's full
// measured budget, with per-metric standard errors in the SampledInfo.
func driveSampled(m *core.Machine, req Request) (core.Stats, *SampledInfo, error) {
	sp := req.Sampling
	spec := req.Workload
	var budget uint64 // measured budget: total materialized minus warm-up
	for _, s := range spec.Streams {
		budget += streamBudget(s, req.Insts)
	}

	// Warm-up runs functionally: the caches and predictor absorb the
	// initialization phase at fast-forward speed, and the first window's
	// detailed warm segment refills the pipeline state.
	if req.Warmup > 0 {
		if _, err := m.FunctionalAdvance(req.Warmup); err != nil {
			return core.Stats{}, nil, err
		}
	}

	// Window placement is systematic with a seeded phase: the instruction
	// budget splits into consecutive intervals and each interval is
	// measured by one window at the same offset inside it. Systematic
	// placement measures lower variance on this workload family than
	// per-interval random jitter (the jitter draw itself becomes the
	// dominant error term once windows shrink), and the fixed stride does
	// not phase-lock against the generators' piecewise phase structure
	// because their phase lengths are irregular multiples of the interval.
	// The phase is seeded from the workload name: distinct workloads sample
	// distinct alignments, so residual placement error decorrelates across
	// a grid instead of biasing every cell the same way — while two configs
	// over the same workload share the alignment, keeping config-vs-config
	// deltas a paired comparison. The offset is a pure function of the
	// request, keeping sampled results deterministic and
	// content-addressable.
	ff := sp.Interval - sp.Warm - sp.Window
	seed := uint64(0x9E3779B97F4A7C15)
	for _, b := range spec.Name() {
		seed ^= uint64(b)
		seed *= 0x100000001B3
	}
	seed ^= seed << 13
	seed ^= seed >> 7
	seed ^= seed << 17
	offset := seed % (ff + 1) // uniform in [0, ff]
	var windows []core.Stats
	var winCovs []core.Covariates
	var mix []uint64
	covBase := m.SampleCov()
	pos := req.Warmup // instructions consumed so far
	for k := uint64(0); !m.Done(); k++ {
		target := req.Warmup + k*sp.Interval + offset
		if target > pos {
			consumed, err := m.FunctionalAdvance(target - pos)
			if err != nil {
				return core.Stats{}, nil, err
			}
			pos += consumed
		}
		if m.Done() {
			break
		}
		if sp.Warm > 0 {
			m.ResetStats()
			if err := m.RunCommitted(sp.Warm); err != nil {
				return core.Stats{}, nil, err
			}
			pos += m.Stats().Committed
		}
		c0 := m.SampleCov()
		m.ResetStats()
		if err := m.RunCommitted(sp.Window); err != nil {
			return core.Stats{}, nil, err
		}
		if st := m.Stats(); st.Committed > 0 {
			windows = append(windows, st)
			winCovs = append(winCovs, m.SampleCov().Sub(c0))
			// Feed the measured per-stream commit mixture back into the
			// fast-forward interleave, so stream exhaustion times track
			// the detailed machine's (the fast stream drains first and
			// the slow-tail regime is sampled at its true weight).
			if len(st.PerStream) > 1 {
				mix = mix[:0]
				for _, ps := range st.PerStream {
					mix = append(mix, ps.Committed+1)
				}
				m.SetFFMix(mix)
			}
		}
		if m.Done() {
			break
		}
		if err := m.DrainPipeline(); err != nil {
			return core.Stats{}, nil, err
		}
		// The drain commits the window's in-flight tail; Stats still counts
		// from the pre-window reset, so this accumulates window+drain.
		pos += m.Stats().Committed
	}
	if len(windows) == 0 {
		return core.Stats{}, nil, fmt.Errorf("harness: sampled run measured no windows (budget %d too small for %s; use exact)",
			budget, sp)
	}

	stats, info := extrapolate(windows, budget, len(spec.Streams))
	if pos > req.Warmup {
		adjustCycles(&stats, info, windows, winCovs, m.SampleCov().Sub(covBase), pos-req.Warmup)
	}
	info.FFInsts = m.FFInsts()
	info.DetailedInsts = (req.Warmup + budget) - m.FFInsts()

	sampledRuns.Add(1)
	sampledFFInsts.Add(info.FFInsts)
	sampledDetailedInsts.Add(info.DetailedInsts)
	return stats, info, nil
}

// extrapolate scales the summed window measurements to the full measured
// budget and derives per-window standard errors for the headline ratios.
func extrapolate(windows []core.Stats, budget uint64, streams int) (core.Stats, *SampledInfo) {
	var sum core.Stats
	if streams > 1 {
		sum.PerStream = make([]core.StreamStats, streams)
	}
	for _, w := range windows {
		sum.Cycles += w.Cycles
		sum.Committed += w.Committed
		sum.Dispatched += w.Dispatched
		for c := range sum.PerCluster {
			sum.PerCluster[c] += w.PerCluster[c]
		}
		sum.Comms += w.Comms
		sum.CommHops += w.CommHops
		sum.CommWait += w.CommWait
		sum.NReady += w.NReady
		sum.NReadyInt += w.NReadyInt
		sum.NReadyFP += w.NReadyFP
		sum.Branches += w.Branches
		sum.Mispredicts += w.Mispredicts
		sum.StallIQ += w.StallIQ
		sum.StallRegs += w.StallRegs
		sum.StallROB += w.StallROB
		sum.StallLSQ += w.StallLSQ
		sum.StallComm += w.StallComm
		sum.StallFetchMt += w.StallFetchMt
		sum.Loads += w.Loads
		sum.Stores += w.Stores
		sum.LoadFwds += w.LoadFwds
		sum.DCacheBusy += w.DCacheBusy
		// Peaks are maxima, not extrapolated volumes.
		sum.PeakRegsInt = max(sum.PeakRegsInt, w.PeakRegsInt)
		sum.PeakRegsFP = max(sum.PeakRegsFP, w.PeakRegsFP)
		for i := range sum.PerStream {
			if i < len(w.PerStream) {
				ps := &sum.PerStream[i]
				ws := w.PerStream[i]
				ps.Committed += ws.Committed
				ps.Dispatched += ws.Dispatched
				ps.Comms += ws.Comms
				ps.Branches += ws.Branches
				ps.Mispredicts += ws.Mispredicts
				ps.Loads += ws.Loads
				ps.Stores += ws.Stores
			}
		}
	}

	scale := float64(budget) / float64(sum.Committed)
	sc := func(v uint64) uint64 { return uint64(math.Round(float64(v) * scale)) }
	est := sum
	est.Cycles = sc(sum.Cycles)
	est.Committed = budget
	est.Dispatched = sc(sum.Dispatched)
	for c := range est.PerCluster {
		est.PerCluster[c] = sc(sum.PerCluster[c])
	}
	est.Comms = sc(sum.Comms)
	est.CommHops = sc(sum.CommHops)
	est.CommWait = sc(sum.CommWait)
	est.NReady = sc(sum.NReady)
	est.NReadyInt = sc(sum.NReadyInt)
	est.NReadyFP = sc(sum.NReadyFP)
	est.Branches = sc(sum.Branches)
	est.Mispredicts = sc(sum.Mispredicts)
	est.StallIQ = sc(sum.StallIQ)
	est.StallRegs = sc(sum.StallRegs)
	est.StallROB = sc(sum.StallROB)
	est.StallLSQ = sc(sum.StallLSQ)
	est.StallComm = sc(sum.StallComm)
	est.StallFetchMt = sc(sum.StallFetchMt)
	est.Loads = sc(sum.Loads)
	est.Stores = sc(sum.Stores)
	est.LoadFwds = sc(sum.LoadFwds)
	est.DCacheBusy = sc(sum.DCacheBusy)
	for i := range est.PerStream {
		ps := &est.PerStream[i]
		ps.Committed = sc(ps.Committed)
		ps.Dispatched = sc(ps.Dispatched)
		ps.Comms = sc(ps.Comms)
		ps.Branches = sc(ps.Branches)
		ps.Mispredicts = sc(ps.Mispredicts)
		ps.Loads = sc(ps.Loads)
		ps.Stores = sc(ps.Stores)
	}

	info := &SampledInfo{Windows: uint64(len(windows))}
	ipc := ratio(sum.Committed, sum.Cycles)
	info.IPCStdErr = stderr(windows, func(w core.Stats) (uint64, uint64) { return w.Committed, w.Cycles })
	info.CommsStdErr = stderr(windows, func(w core.Stats) (uint64, uint64) { return w.Comms, w.Committed })
	info.HopsStdErr = stderr(windows, func(w core.Stats) (uint64, uint64) { return w.CommHops, w.Comms })
	// 99% normal interval plus a systematic allowance for residual
	// warming bias (see SampledInfo).
	info.IPCCI = 2.576*info.IPCStdErr + 0.015*ipc
	return est, info
}

// covDim is the number of covariates the regression uses: branch density,
// mispredict rate, and the two cache-latency rates. Adding further
// signals (load/store density, dependence tightness) was tried and made
// the estimate worse: their fetch-versus-commit boundary offsets over a
// small window do not cancel, and the regression imports that mismatch as
// bias rather than removing variance.
const covDim = 4

// covVec flattens the covariate counters into per-instruction rates.
func covVec(c core.Covariates, insts float64) [covDim]float64 {
	return [covDim]float64{
		float64(c.Branches) / insts,
		float64(c.Mispredicts) / insts,
		float64(c.DLat) / insts,
		float64(c.ILat) / insts,
	}
}

// adjustCycles replaces the plain window-ratio cycle extrapolation with a
// regression estimate when enough windows exist: window CPI is regressed
// on the per-instruction covariates (branch density, mispredict rate,
// data- and instruction-cache latency), and the fit is evaluated at the
// covariates' full-run averages — which are known exactly, because
// fast-forward observes them for every instruction it retires. The
// correction cancels the part of the window-placement error the
// covariates explain; the standard error shrinks to the residual scatter.
// On any degenerate input the plain extrapolation is left in place.
func adjustCycles(est *core.Stats, info *SampledInfo, windows []core.Stats, covs []core.Covariates, total core.Covariates, totalInsts uint64) {
	k := len(windows)
	if k < 8 || len(covs) != k || totalInsts == 0 || est.Committed == 0 {
		return
	}
	xs := make([][covDim]float64, 0, k)
	ys := make([]float64, 0, k)
	ws := make([]float64, 0, k)
	var sw float64
	for i, st := range windows {
		if st.Committed == 0 || st.Cycles == 0 {
			continue
		}
		n := float64(st.Committed)
		xs = append(xs, covVec(covs[i], n))
		ys = append(ys, float64(st.Cycles)/n)
		ws = append(ws, n)
		sw += n
	}
	k = len(ys)
	if k < 8 || sw == 0 {
		return
	}

	var xbar [covDim]float64
	var ybar float64
	for i := range xs {
		for j := range xbar {
			xbar[j] += ws[i] * xs[i][j]
		}
		ybar += ws[i] * ys[i]
	}
	for j := range xbar {
		xbar[j] /= sw
	}
	ybar /= sw

	// Weighted normal equations on centered covariates, with a small ridge
	// so collinear or constant covariates cannot blow up the fit.
	var a [covDim][covDim]float64
	var bv [covDim]float64
	for i := range xs {
		var xc [covDim]float64
		for j := range xc {
			xc[j] = xs[i][j] - xbar[j]
		}
		yc := ys[i] - ybar
		for j := range xc {
			bv[j] += ws[i] * xc[j] * yc
			for l := j; l < covDim; l++ {
				a[j][l] += ws[i] * xc[j] * xc[l]
			}
		}
	}
	for j := 0; j < covDim; j++ {
		for l := 0; l < j; l++ {
			a[j][l] = a[l][j]
		}
	}
	for j := range bv {
		a[j][j] += 1e-6*a[j][j] + 1e-12*sw
	}
	coef, ok := solveLinear(a, bv)
	if !ok {
		return
	}

	xfull := covVec(total, float64(totalInsts))
	cpi := ybar
	for j, b := range coef {
		cpi += b * (xfull[j] - xbar[j])
	}
	// A correction this large means the windows saw nothing like the
	// full-run covariate mix; trust the plain extrapolation instead.
	if cpi <= 0 || cpi < 0.25*ybar || cpi > 4*ybar {
		return
	}

	var mse float64
	for i := range xs {
		r := ys[i] - ybar
		for j, b := range coef {
			r -= b * (xs[i][j] - xbar[j])
		}
		mse += ws[i] * r * r
	}
	mse /= sw
	dof := float64(k - covDim - 1)
	if dof < 1 {
		dof = 1
	}
	seCPI := math.Sqrt(mse / dof)

	est.Cycles = uint64(math.Round(float64(est.Committed) * cpi))
	ipc := 1 / cpi
	// Delta method: IPC = 1/CPI, so se(IPC) ≈ se(CPI)/CPI².
	info.IPCStdErr = seCPI * ipc * ipc
	info.IPCCI = 2.576*info.IPCStdErr + 0.015*ipc
}

// solveLinear solves a·x = b by Gaussian elimination with partial
// pivoting; ok is false when the system is singular.
func solveLinear(a [covDim][covDim]float64, b [covDim]float64) ([covDim]float64, bool) {
	var x [covDim]float64
	for col := 0; col < covDim; col++ {
		p := col
		for r := col + 1; r < covDim; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-300 {
			return x, false
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		for r := col + 1; r < covDim; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < covDim; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := covDim - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < covDim; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// stderr computes the standard error of the mean of a per-window ratio.
// Windows where the denominator is zero are skipped; fewer than two
// usable windows yield zero (the CI floor covers the degenerate case).
func stderr(windows []core.Stats, f func(core.Stats) (uint64, uint64)) float64 {
	var xs []float64
	for _, w := range windows {
		num, den := f(w)
		if den == 0 {
			continue
		}
		xs = append(xs, float64(num)/float64(den))
	}
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return sd / math.Sqrt(float64(len(xs)))
}
