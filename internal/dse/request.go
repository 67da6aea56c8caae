package dse

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// Request is an exploration as a user names it: the ringsimd POST
// /v1/explore body, and what `ringsim explore` builds from its flags. Its
// JSON encoding is an exploration manifest's replayable request, so field
// names and order are part of the durable format.
type Request struct {
	// Base is the configuration the axes vary over; defaults to the
	// paper's preferred Ring_8clus_1bus_2IW machine.
	Base *results.ConfigSpec `json:"base,omitempty"`
	// Axes are the search dimensions (see the knob names in space.go).
	Axes []Axis `json:"axes"`
	// Strategy is "grid" (default), "random", or "climb".
	Strategy string `json:"strategy,omitempty"`
	// Budget caps evaluated candidates (0 = the grid size).
	Budget int `json:"budget,omitempty"`
	// Samples sizes the random strategy (0 = 32).
	Samples int `json:"samples,omitempty"`
	// Seed drives the stochastic strategies.
	Seed int64 `json:"seed,omitempty"`
	// Programs is the workload suite per candidate; empty means the full
	// suite.
	Programs []string `json:"programs,omitempty"`
	// Insts and Warmup are the per-program harness scalars.
	Insts  uint64 `json:"insts"`
	Warmup uint64 `json:"warmup"`
	// Twin gates the exploration with the analytical predictor: "on",
	// "off", or "auto". Empty means off.
	Twin string `json:"twin,omitempty"`
	// Fidelity selects the search tier's execution fidelity ("exact" or
	// "sampled(interval,window,warm)"); the final frontier is always
	// re-scored exactly. Empty means exact.
	Fidelity string `json:"fidelity,omitempty"`
}

// Options validates the request and resolves it into exploration options
// without an Evaluator, Concurrency or Observer, which belong to whoever
// runs it. Twin is always set: its Programs, Insts and Warmup name the
// suite and budgets the evaluator must score with. An impossible
// combination (twin on with a non-grid strategy) or a bad fidelity is
// refused here, before anything is simulated.
func (r *Request) Options() (Options, error) {
	base := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
	if r.Base != nil {
		var err error
		if base, err = r.Base.Resolve(); err != nil {
			return Options{}, fmt.Errorf("base: %w", err)
		}
	}
	space := Space{Base: base, Axes: r.Axes}
	if err := space.Validate(); err != nil {
		return Options{}, err
	}
	strat, err := NewStrategy(r.Strategy, r.Samples)
	if err != nil {
		return Options{}, err
	}
	mode, err := ParseTwinMode(r.Twin)
	if err != nil {
		return Options{}, err
	}
	sp, err := harness.ParseFidelity(r.Fidelity)
	if err != nil {
		return Options{}, err
	}
	programs := workload.Names()
	if len(r.Programs) > 0 {
		if programs, err = workload.CanonicalNames(r.Programs); err != nil {
			return Options{}, err
		}
	}
	if r.Insts == 0 {
		return Options{}, errors.New("insts must be positive")
	}
	twin := &TwinOptions{Mode: mode, Programs: programs, Insts: r.Insts, Warmup: r.Warmup}
	if _, err := twin.Enabled(strat, space.Size()); err != nil {
		return Options{}, err
	}
	return Options{Space: space, Strategy: strat, Budget: r.Budget, Seed: r.Seed, Sampling: sp, Twin: twin}, nil
}
