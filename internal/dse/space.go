// Package dse implements design-space exploration: automated search over
// machine-configuration spaces for the IPC × area Pareto frontier.
//
// The paper evaluates one hand-picked grid (Table 3: cluster count × bus
// count × issue width). This package turns that table into a capability:
// a Space declares parameter axes over core.Config knobs, an Evaluator
// scores candidate configurations by simulating a workload suite (mean
// IPC, to maximize) and pricing the silicon with the Section 3.2 layout
// model (area in λ², to minimize), and a Strategy decides which
// candidates to try next — exhaustive grid, random sampling, or an
// adaptive hill-climber that mutates the current frontier.
//
// Every candidate evaluation flows through the content-addressed result
// store of internal/results, so a point is never simulated twice — not
// within one exploration, not across explorations, and not across
// processes when the store is disk-backed. Re-running an exploration over
// a warm store costs zero simulations.
package dse

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Axis is one searchable dimension of the space: a named configuration
// knob and the explicit values it may take. Values are kept in the order
// given; strategies that step "up" or "down" an axis move through this
// slice.
type Axis struct {
	// Name is one of the registered knobs: arch, clusters, buses, iw,
	// hop, iq, regs.
	Name string `json:"name"`
	// Values are the points on the axis. For "arch", 0 means Ring and 1
	// means Conv; every other axis is the literal field value.
	Values []int `json:"values"`
}

// Knob names. Each maps onto one or two core.Config fields; int/FP
// twins (issue width, queue size, register count) move together, the way
// the paper's own configurations scale them.
const (
	AxisArch     = "arch"     // 0 = Ring, 1 = Conv
	AxisClusters = "clusters" // Config.Clusters
	AxisBuses    = "buses"    // Config.Buses
	AxisIW       = "iw"       // Config.IssueInt and IssueFP
	AxisHop      = "hop"      // Config.HopLatency
	AxisIQ       = "iq"       // Config.IQInt and IQFP
	AxisRegs     = "regs"     // Config.RegsInt and RegsFP
)

// knownAxes lists every registered knob, in canonical (sorted) order —
// the hardware axes above plus the workload axes (wilp, wws, wbr,
// wphases; see workload.go), which vary the scenario instead of the
// machine.
var knownAxes = append([]string{AxisArch, AxisBuses, AxisClusters, AxisHop, AxisIQ, AxisIW, AxisRegs}, workloadAxes...)

// Space is the search domain: a base configuration plus the axes that
// vary over it. Axes not listed keep the base value, so a Space is a
// slice through the full configuration space.
type Space struct {
	// Base is the configuration every candidate starts from. Zero-value
	// fields are not special; callers usually start from a paper config.
	Base core.Config
	// Axes are the varying dimensions. Order fixes grid-enumeration
	// order; candidate identity is order-independent.
	Axes []Axis
}

// Validate reports the first structural problem with the space (unknown
// axis name, empty axis, duplicate axis). Individual candidate configs
// may still fail core validation; those are skipped during search and
// counted, not fatal.
func (s *Space) Validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("dse: space has no axes")
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, ax := range s.Axes {
		known := false
		for _, k := range knownAxes {
			if ax.Name == k {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("dse: unknown axis %q (want one of %s)", ax.Name, strings.Join(knownAxes, ", "))
		}
		if len(ax.Values) == 0 {
			return fmt.Errorf("dse: axis %q has no values", ax.Name)
		}
		if seen[ax.Name] {
			return fmt.Errorf("dse: duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
	}
	return nil
}

// Size returns the number of grid points (the product of axis lengths),
// including points whose configuration turns out invalid. The product
// saturates at math.MaxInt instead of overflowing, so callers can bound
// arbitrarily large requested spaces with a plain comparison.
func (s *Space) Size() int {
	n := 1
	for _, ax := range s.Axes {
		if len(ax.Values) != 0 && n > math.MaxInt/len(ax.Values) {
			return math.MaxInt
		}
		n *= len(ax.Values)
	}
	return n
}

// Candidate is one point of the space: a value per axis.
type Candidate struct {
	// Params maps axis name to the chosen value.
	Params map[string]int `json:"params"`
}

// Key returns the candidate's canonical identity: axis names sorted, so
// two candidates with equal parameters are equal regardless of how a
// strategy constructed them.
func (c Candidate) Key() string {
	names := make([]string, 0, len(c.Params))
	for n := range c.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", n, c.Params[n])
	}
	return sb.String()
}

// Config materializes the candidate over the space's base configuration.
// The produced Name is a pure function of the parameter values, so the
// content-addressed result cache recognizes the same point across
// explorations, strategies, and processes.
func (s *Space) Config(c Candidate) (core.Config, error) {
	cfg := s.Base
	for name, v := range c.Params {
		if isWorkloadAxis(name) {
			continue // materialized by Workloads, not the config
		}
		switch name {
		case AxisArch:
			switch v {
			case 0:
				cfg.Arch = core.ArchRing
			case 1:
				cfg.Arch = core.ArchConv
			default:
				return core.Config{}, fmt.Errorf("dse: arch value %d (want 0=ring or 1=conv)", v)
			}
		case AxisClusters:
			cfg.Clusters = v
		case AxisBuses:
			cfg.Buses = v
		case AxisIW:
			cfg.IssueInt, cfg.IssueFP = v, v
		case AxisHop:
			cfg.HopLatency = v
		case AxisIQ:
			cfg.IQInt, cfg.IQFP = v, v
		case AxisRegs:
			cfg.RegsInt, cfg.RegsFP = v, v
		default:
			return core.Config{}, fmt.Errorf("dse: unknown axis %q", name)
		}
	}
	cfg.Name = configName(cfg)
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// configName derives the canonical candidate name from the materialized
// configuration. Deriving from the config (not the candidate) means the
// name — and therefore the content hash — is identical whether a knob was
// pinned by the base or chosen by an axis.
func configName(cfg core.Config) string {
	return fmt.Sprintf("dse_%s_%dclus_%dbus_%dIW_%dhop_%diq_%dregs",
		cfg.Arch, cfg.Clusters, cfg.Buses, cfg.IssueInt, cfg.HopLatency, cfg.IQInt, cfg.RegsInt)
}

// Grid enumerates every candidate of the space in axis-major order (the
// first axis varies slowest). Invalid configurations are included — the
// engine skips and counts them at evaluation time.
func (s *Space) Grid() []Candidate {
	out := make([]Candidate, 0, s.Size())
	idx := make([]int, len(s.Axes))
	for {
		p := make(map[string]int, len(s.Axes))
		for i, ax := range s.Axes {
			p[ax.Name] = ax.Values[idx[i]]
		}
		out = append(out, Candidate{Params: p})
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Neighbors returns the candidates one axis-step away from c: for every
// axis, the adjacent values in the axis's value list. Used by the
// climber strategy to expand around frontier points.
func (s *Space) Neighbors(c Candidate) []Candidate {
	var out []Candidate
	for _, ax := range s.Axes {
		cur, ok := c.Params[ax.Name]
		if !ok {
			continue
		}
		pos := -1
		for i, v := range ax.Values {
			if v == cur {
				pos = i
				break
			}
		}
		if pos < 0 {
			continue
		}
		for _, np := range []int{pos - 1, pos + 1} {
			if np < 0 || np >= len(ax.Values) {
				continue
			}
			p := make(map[string]int, len(c.Params))
			for k, v := range c.Params {
				p[k] = v
			}
			p[ax.Name] = ax.Values[np]
			out = append(out, Candidate{Params: p})
		}
	}
	return out
}

// MaxAxisValues caps how many values one axis of a ParseAxes
// specification may expand to: an axis is a list of machine parameter
// settings to sweep, and a range past this is a typo, not a design space.
const MaxAxisValues = 4096

// ParseAxes parses a CLI axis specification: semicolon-separated
// `name=values` clauses, where values are a comma list of integers
// and/or `lo..hi` or `lo..hi/step` ranges. Example:
//
//	clusters=4,8;iw=1,2;hop=1..4/1
//
// For the arch axis, the symbolic values "ring" and "conv" are accepted.
// An axis that expands to more than MaxAxisValues values is an error.
func ParseAxes(spec string) ([]Axis, error) {
	var axes []Axis
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, vals, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("dse: axis clause %q is not name=values", clause)
		}
		name = strings.TrimSpace(name)
		ax := Axis{Name: name}
		for _, item := range strings.Split(vals, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			if name == AxisArch {
				switch strings.ToLower(item) {
				case "ring", "0":
					ax.Values = append(ax.Values, 0)
				case "conv", "1":
					ax.Values = append(ax.Values, 1)
				default:
					return nil, fmt.Errorf("dse: arch value %q (want ring or conv)", item)
				}
			} else {
				vs, err := parseRange(item)
				if err != nil {
					return nil, fmt.Errorf("dse: axis %q: %w", name, err)
				}
				ax.Values = append(ax.Values, vs...)
			}
			if len(ax.Values) > MaxAxisValues {
				return nil, fmt.Errorf("dse: axis %q has more than %d values", name, MaxAxisValues)
			}
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("dse: axis %q has no values", name)
		}
		axes = append(axes, ax)
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("dse: empty axis specification")
	}
	return axes, nil
}

// parseRange parses "n", "lo..hi" or "lo..hi/step" into a value list of at
// most MaxAxisValues values (a longer range is refused before anything is
// allocated). strconv.Atoi (not Sscanf) so trailing garbage like "4x8" is
// an error, not a silently truncated value.
func parseRange(item string) ([]int, error) {
	span, stepStr, hasStep := strings.Cut(item, "/")
	lo, hi, isRange := strings.Cut(span, "..")
	if !isRange {
		v, err := strconv.Atoi(span)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", item)
		}
		return []int{v}, nil
	}
	a, errA := strconv.Atoi(lo)
	b, errB := strconv.Atoi(hi)
	if errA != nil || errB != nil {
		return nil, fmt.Errorf("bad range %q", item)
	}
	step := 1
	if hasStep {
		var err error
		if step, err = strconv.Atoi(stepStr); err != nil || step < 1 {
			return nil, fmt.Errorf("bad step in %q", item)
		}
	}
	if b < a {
		return nil, fmt.Errorf("descending range %q", item)
	}
	// The span b−a fits a uint64 whatever a and b are, and every value
	// a + i·step lies in [a, b], so neither the count nor the loop can
	// overflow.
	steps := (uint64(b) - uint64(a)) / uint64(step)
	if steps >= MaxAxisValues {
		return nil, fmt.Errorf("range %q has more than %d values", item, MaxAxisValues)
	}
	out := make([]int, steps+1)
	for i := range out {
		out[i] = int(uint64(a) + uint64(i)*uint64(step))
	}
	return out, nil
}
