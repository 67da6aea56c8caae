package dse

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/predict"
	"repro/internal/workload"
)

// TwinMode selects whether the analytical twin gates an exploration.
type TwinMode string

const (
	// TwinOff runs the exact exhaustive path: every candidate simulates.
	TwinOff TwinMode = "off"
	// TwinOn scores the whole space with the closed-form model and
	// simulates only the predicted frontier plus its ε-neighborhood.
	// Requires the grid strategy (the gate needs the full space).
	TwinOn TwinMode = "on"
	// TwinAuto enables the twin when it can help: grid strategy over a
	// space of at least TwinAutoMinSpace candidates.
	TwinAuto TwinMode = "auto"
)

// TwinAutoMinSpace is the smallest space TwinAuto gates: below it the
// twin's savings cannot outweigh the risk of a frontier miss.
const TwinAutoMinSpace = 8

// ParseTwinMode validates a -twin flag value.
func ParseTwinMode(s string) (TwinMode, error) {
	switch TwinMode(s) {
	case TwinOff, TwinOn, TwinAuto:
		return TwinMode(s), nil
	case "":
		return TwinOff, nil
	}
	return "", fmt.Errorf("dse: invalid -twin value %q (legal values: on, off, auto)", s)
}

// twinEpsilon is the relative slack of the verification
// neighborhood: a candidate simulates when its predicted IPC is within
// ε of the best prediction at its area or below. It treats sub-0.2%
// predicted gaps as ties (both sides simulate); the calibrated model
// separates distinguishable candidates by more than that.
const twinEpsilon = 0.002

// TwinOptions configures the analytical-twin gate of an exploration.
type TwinOptions struct {
	// Mode gates the twin; TwinOff (or a nil TwinOptions) is the exact
	// exhaustive path.
	Mode TwinMode
	// Programs is the default workload suite for candidates without
	// workload axes; it must match the evaluator's suite or the twin
	// ranks a different problem than the simulator scores. When the twin
	// does not gate the exploration, these are the programs it holds in
	// the trace cache across its rounds and tiers (see traceHolds).
	Programs []string
	// Insts and Warmup are the harness accounting the profiles cover;
	// they must match the evaluator's.
	Insts, Warmup uint64
	// Profiles is the profile cache (nil = harness.DefaultProfileCache).
	Profiles *harness.ProfileCache
}

// Enabled resolves the mode against the chosen strategy and space size.
// TwinOn with a non-grid strategy is an error: the gate ranks the whole
// space, which only the grid strategy enumerates. Request.Options calls
// it too, so an impossible combination is refused before an exploration
// starts instead of failing it asynchronously.
func (t *TwinOptions) Enabled(strategy Strategy, spaceSize int) (bool, error) {
	if t == nil || t.Mode == TwinOff || t.Mode == "" {
		return false, nil
	}
	grid := strategy.Name() == "grid"
	switch t.Mode {
	case TwinOn:
		if !grid {
			return false, fmt.Errorf("dse: -twin=on requires -strategy=grid (got %q); use -twin=auto to fall back", strategy.Name())
		}
		return true, nil
	case TwinAuto:
		return grid && spaceSize >= TwinAutoMinSpace, nil
	}
	return false, fmt.Errorf("dse: invalid -twin value %q (legal values: on, off, auto)", string(t.Mode))
}

// twinScore is one candidate's closed-form evaluation.
type twinScore struct {
	cand     Candidate
	area     float64
	predIPC  float64
	programs int // workload size, for sims-avoided accounting
	invalid  bool
}

// exploreTwin is the tiered engine: the twin scores every candidate of
// the grid, the simulator verifies only the candidates whose predicted
// IPC is within ε of the best prediction at their area or below (a
// superset of the predicted Pareto frontier, since area is exact), and
// predicted-vs-simulated error is reported as first-class accounting.
// The returned frontier equals the exhaustive one whenever the model
// ranks the true frontier within ε — the property the calibration tests
// pin. ev is the verification-tier evaluator; with Options.Sampling
// enabled it runs sampled and exact is non-nil, adding a third tier
// that re-scores the frontier exactly (closed-form → sampled → exact).
func exploreTwin(opts Options, ev, exact Evaluator, budget int) (*Report, error) {
	t := opts.Twin
	profiles := t.Profiles
	if profiles == nil {
		profiles = harness.DefaultProfileCache
	}
	model := predict.DefaultModel()
	space := &opts.Space
	rep := &Report{
		Strategy:  opts.Strategy.Name(),
		TwinMode:  string(TwinOn),
		SpaceSize: space.Size(),
	}
	if exact != nil {
		rep.Fidelity = opts.Sampling.String()
	}

	// Tier 1: closed-form scores for the whole grid. Summarizing a trace
	// costs a thousand times a prediction, so the grid's distinct programs
	// are profiled first, on every worker, and the scoring pass reads the
	// finished profiles.
	grid := space.Grid()
	scores := make([]twinScore, len(grid))
	cfgs := make([]core.Config, len(grid))
	progsOf := make([][]string, len(grid))
	var distinct []string
	seen := make(map[string]bool)
	for i, c := range grid {
		scores[i].cand = c
		cfg, err := space.Config(c)
		var progs []string
		if err == nil {
			progs, err = space.Workloads(c)
		}
		if err != nil {
			scores[i].invalid = true
			rep.Skipped++
			continue
		}
		if progs == nil {
			progs = t.Programs
		}
		if len(progs) == 0 {
			return nil, fmt.Errorf("dse: twin has no programs")
		}
		cfgs[i], progsOf[i] = cfg, progs
		for _, prog := range progs {
			if !seen[prog] {
				seen[prog] = true
				distinct = append(distinct, prog)
			}
		}
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	built := buildProfiles(profiles, distinct, t.Insts, t.Warmup, workers)
	for i := range scores {
		s := &scores[i]
		if s.invalid {
			continue
		}
		var sum float64
		for _, prog := range progsOf[i] {
			b := built[prog]
			if b.err != nil {
				return nil, b.err // the first failure in grid order, as a serial pass reports it
			}
			pred, err := model.PredictIPC(b.profile, &cfgs[i])
			if err != nil {
				return nil, err
			}
			sum += pred.IPC
		}
		s.area = Area(cfgs[i])
		s.predIPC = sum / float64(len(progsOf[i]))
		s.programs = len(progsOf[i])
		rep.TwinPredictions += len(progsOf[i])
	}
	rep.Proposed = len(scores)

	// Tier 2 selection: area is closed-form (exact), so a candidate can
	// only be Pareto-optimal if no cheaper-or-equal candidate beats its
	// IPC — sort by area and verify everything predicted within ε of the
	// running best.
	order := make([]*twinScore, 0, len(scores))
	for i := range scores {
		if !scores[i].invalid {
			order = append(order, &scores[i])
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].area != order[j].area {
			return order[i].area < order[j].area
		}
		return order[i].predIPC > order[j].predIPC
	})
	var verify []*twinScore
	best := math.Inf(-1)
	for _, s := range order {
		if s.predIPC*(1+twinEpsilon) >= best {
			verify = append(verify, s)
		} else {
			rep.SimsAvoided += s.programs
		}
		if s.predIPC > best {
			best = s.predIPC
		}
	}
	if budget > 0 && len(verify) > budget {
		for _, s := range verify[budget:] {
			rep.SimsAvoided += s.programs
		}
		verify = verify[:budget]
	}

	// Verify with the real simulator through the shared evaluator path
	// (result store and all, identical to the exhaustive engine), then
	// report prediction error on everything verified.
	batch := make([]Candidate, len(verify))
	for i, s := range verify {
		batch[i] = s.cand
	}
	frontier := &Frontier{}
	var mapeSum float64
	var mapeN int
	rep.tally(batch, evaluateBatch(space, ev, batch), exact != nil, func(i int, p Point) {
		frontier.Add(p)
		rep.Evaluated++
		rep.Points = append(rep.Points, p)
		if ipc := p.Objectives.IPC; ipc > 0 {
			mapeSum += math.Abs(verify[i].predIPC-ipc) / ipc
			mapeN++
		}
	})
	rep.TwinVerified = rep.Evaluated
	if mapeN > 0 {
		rep.TwinMAPE = mapeSum / float64(mapeN) * 100
	}
	rep.Rounds = 1
	rep.Frontier = frontier.Points()
	if opts.Observer != nil {
		opts.Observer(rep)
	}
	if rep.Evaluated == 0 {
		return rep, fmt.Errorf("dse: no candidate evaluated (%d invalid, %d failed)", rep.Skipped, rep.Failed)
	}
	if exact != nil {
		confirmFrontierExact(space, exact, rep, nil)
		if opts.Observer != nil {
			opts.Observer(rep)
		}
	}
	return rep, nil
}

// builtProfile is one program's workload-level profile, or why it could
// not be built.
type builtProfile struct {
	profile *predict.Profile
	err     error
}

// buildProfiles computes every program's profile through the profile
// cache, workers at a time, and returns them by program.
func buildProfiles(pc *harness.ProfileCache, progs []string, insts, warmup uint64, workers int) map[string]builtProfile {
	out := make([]builtProfile, len(progs))
	if workers > len(progs) {
		workers = len(progs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(progs) {
					return
				}
				spec, err := workload.ParseSpec(progs[i])
				if err == nil {
					out[i].profile, err = pc.ProfileSpec(spec, insts, warmup)
				}
				out[i].err = err
			}
		}()
	}
	wg.Wait()
	byProg := make(map[string]builtProfile, len(progs))
	for i, prog := range progs {
		byProg[prog] = out[i]
	}
	return byProg
}
