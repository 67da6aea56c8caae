package dse

import (
	"fmt"

	"repro/internal/workload"
)

// Workload axes extend exploration beyond hardware: with synthetic
// workload specs (workload.SynthParams) the scenario itself is
// parametric, so a space can sweep program character — ILP, working
// set, branch behaviour, phase structure — alongside (or instead of)
// machine knobs.
// Each workload axis maps an integer axis value onto one synth
// parameter; a candidate with any workload axis is scored on the single
// synthetic workload those values canonicalize to instead of the
// evaluator's default suite. Because the spec string is canonical, the
// same scenario point shares content keys across explorations and
// processes exactly like hardware points do.
const (
	// AxisWILP is the workload's mean dependence-chain distance ×10
	// (so 25 = the default 2.5 instructions).
	AxisWILP = "wilp"
	// AxisWWS is the workload's working-set size as a power of two
	// (so 20 = 1 MiB).
	AxisWWS = "wws"
	// AxisWBR is the workload's unbiased-branch percentage (0–100).
	AxisWBR = "wbr"
	// AxisWPhases is the workload's phase count (1–8).
	AxisWPhases = "wphases"
)

// workloadAxes lists the scenario knobs, in canonical (sorted) order.
var workloadAxes = []string{AxisWBR, AxisWILP, AxisWPhases, AxisWWS}

// isWorkloadAxis reports whether the axis parameterizes the workload
// rather than the machine configuration.
func isWorkloadAxis(name string) bool {
	for _, w := range workloadAxes {
		if name == w {
			return true
		}
	}
	return false
}

// Workloads materializes the candidate's scenario: nil when the
// candidate has no workload axes (the evaluator then uses its default
// suite), otherwise a one-element program list holding the canonical
// synth spec the axis values denote. Out-of-range values are errors the
// engine counts as invalid candidates, symmetric with config validation.
func (s *Space) Workloads(c Candidate) ([]string, error) {
	p := workload.SynthDefaults()
	any := false
	for name, v := range c.Params {
		switch name {
		case AxisWILP:
			if v < 1 || v > 640 {
				return nil, fmt.Errorf("dse: wilp=%d out of range [1, 640] (tenths of instructions)", v)
			}
			p.ILP = float64(v) / 10
		case AxisWWS:
			if v < 10 || v > 30 {
				return nil, fmt.Errorf("dse: wws=%d out of range [10, 30] (log2 bytes)", v)
			}
			p.WS = uint64(1) << v
		case AxisWBR:
			if v < 0 || v > 100 {
				return nil, fmt.Errorf("dse: wbr=%d out of range [0, 100] (percent)", v)
			}
			p.Br = float64(v) / 100
		case AxisWPhases:
			if v < 1 || v > workload.MaxSynthPhases {
				return nil, fmt.Errorf("dse: wphases=%d out of range [1, %d]", v, workload.MaxSynthPhases)
			}
			p.Phases = v
		default:
			continue
		}
		any = true
	}
	if !any {
		return nil, nil
	}
	return []string{p.Canonical()}, nil
}
