// Package core implements the paper's clustered out-of-order pipeline in
// both variants: the proposed ring clustered microarchitecture (results
// bypass to the next cluster; no intra-cluster bypass) and the
// conventional baseline (intra-cluster bypass; DCOUNT-balanced steering).
//
// The machine is cycle-driven and trace-driven: it pulls a dynamic
// instruction stream (see internal/trace and internal/workload) and models
// fetch, branch prediction, decode/rename with distributed register copy
// tracking, steering/dispatch, per-cluster out-of-order issue, execution,
// the inter-cluster ring buses with contention, the memory hierarchy, and
// in-order commit. All statistics the paper reports (IPC, communications
// per instruction, communication distance, bus-contention delay, NREADY
// workload imbalance, per-cluster dispatch distribution) fall out of the
// same run.
package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/interconnect"
	"repro/internal/steering"
)

// ArchKind selects the bypass organization.
type ArchKind uint8

const (
	// ArchRing is the proposed machine: results of cluster i are bypassed
	// to and written into the register file of cluster (i+1) mod N.
	ArchRing ArchKind = iota
	// ArchConv is the conventional machine: results stay in the producing
	// cluster.
	ArchConv
)

// String returns "Ring" or "Conv".
func (a ArchKind) String() string {
	if a == ArchRing {
		return "Ring"
	}
	return "Conv"
}

// SteerKind selects which steering policy drives dispatch.
type SteerKind uint8

const (
	// SteerEnhanced is each architecture's full policy: Section 3.1 for
	// Ring, Section 4.1 (DCOUNT) for Conv.
	SteerEnhanced SteerKind = iota
	// SteerSimple is the Section 4.7 simple steering algorithm (SSA) for
	// both architectures.
	SteerSimple
)

// String returns "enhanced" or "SSA".
func (s SteerKind) String() string {
	if s == SteerEnhanced {
		return "enhanced"
	}
	return "SSA"
}

// CommModel selects how inter-cluster communications are timed. The paper
// machines use CommBuses; the other models are ablation knobs used to
// attribute performance between steering quality and interconnect limits.
type CommModel uint8

const (
	// CommBuses reserves real pipelined bus slots: latency plus
	// contention (the paper's model).
	CommBuses CommModel = iota
	// CommNoContention charges hop latency but never queues (infinite
	// bus bandwidth).
	CommNoContention
	// CommInstant makes values visible remotely the cycle they are
	// requested and ready (an upper bound isolating steering quality).
	CommInstant
)

// String names the communication model.
func (c CommModel) String() string {
	switch c {
	case CommBuses:
		return "buses"
	case CommNoContention:
		return "no-contention"
	default:
		return "instant"
	}
}

// CopyRelease selects when communicated register copies free their
// physical registers. The paper analyzes ReleaseOnRedefine and mentions
// ReleaseOnRead as the alternative trade-off ("reduce register pressure at
// the expense of an increase in the number of copies", Section 3); both
// are implemented.
type CopyRelease uint8

const (
	// ReleaseOnRedefine frees every copy of a value in one shot when the
	// instruction redefining its architectural register commits (the
	// paper's analyzed policy).
	ReleaseOnRedefine CopyRelease = iota
	// ReleaseOnRead frees a communicated copy as soon as its last
	// dispatched reader has consumed it; later consumers in that cluster
	// need a fresh communication.
	ReleaseOnRead
)

// String names the policy.
func (c CopyRelease) String() string {
	if c == ReleaseOnRead {
		return "release-on-read"
	}
	return "release-on-redefine"
}

// Config fully describes one simulated machine. Use the Paper* helpers for
// the configurations in Table 3.
//
// Fields are declared in JSON key order (byte order of the Go names), so
// json.Marshal writes the canonical encoding a content key hashes.
type Config struct {
	// Arch selects ring or conventional bypassing.
	Arch ArchKind
	// Bpred sizes the branch predictor.
	Bpred bpred.Config
	// Buses is the number of inter-cluster buses (1 or 2). With 2 buses,
	// Ring runs both in the same direction and Conv runs one per
	// direction, as Section 4.2 specifies.
	Buses int
	// Clusters is the number of clusters (2..16).
	Clusters int
	// Comm selects the communication timing model (ablation knob;
	// CommBuses is the paper's machine).
	Comm CommModel
	// CommitWidth is the back-end width (Table 2).
	CommitWidth int
	// Conv tunes the DCOUNT imbalance controller (ignored by Ring).
	Conv steering.ConvConfig
	// Copies selects the copy-release policy (ReleaseOnRedefine is the
	// paper's analyzed alternative).
	Copies CopyRelease
	// DispatchWidth, FetchQSize and FetchWidth are front-end widths and
	// capacities (Table 2).
	DispatchWidth int
	FetchQSize    int
	FetchWidth    int
	// HopLatency is the bus latency per hop in cycles (1 in the main
	// evaluation, 2 in Section 4.6).
	HopLatency int
	// IQComm, IQFP and IQInt are per-cluster queue capacities.
	IQComm int
	IQFP   int
	IQInt  int
	// IssueFP and IssueInt are the per-cluster issue widths per side.
	IssueFP  int
	IssueInt int
	// LSQSize is the load/store queue capacity (Table 2).
	LSQSize int
	// Mem sizes the memory hierarchy.
	Mem cache.HierarchyConfig
	// Name labels the configuration in reports, e.g. "Ring_8clus_1bus_2IW".
	Name string
	// ROBSize is the reorder buffer capacity (Table 2).
	ROBSize int
	// RegsFP and RegsInt are per-cluster physical register counts.
	RegsFP  int
	RegsInt int
	// Steer selects the steering policy family.
	Steer SteerKind
	// SteerLatency is the extra front-end latency of the steering logic
	// (1 cycle for both machines, Section 4.1).
	SteerLatency int
}

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	switch {
	case c.Clusters < 2 || c.Clusters > 16:
		return fmt.Errorf("core: %d clusters out of range [2,16]", c.Clusters)
	case c.IssueInt < 1 || c.IssueFP < 1:
		return fmt.Errorf("core: non-positive issue width")
	case c.Buses < 1 || c.Buses > 2:
		return fmt.Errorf("core: %d buses unsupported", c.Buses)
	case c.HopLatency < 1:
		return fmt.Errorf("core: non-positive hop latency")
	case !interconnect.FitsWindow(c.Clusters, c.HopLatency):
		return fmt.Errorf("core: %d clusters at %d cycles/hop exceed the bus reservation window",
			c.Clusters, c.HopLatency)
	case c.IQInt < 1 || c.IQFP < 1 || c.IQComm < 1:
		return fmt.Errorf("core: non-positive issue queue size")
	case c.RegsInt < 34 || c.RegsFP < 34:
		// Progress guarantee: every architectural register may hold one
		// copy per cluster, plus headroom to dispatch (see pipeline.go).
		return fmt.Errorf("core: register files must exceed the architectural count")
	case c.FetchWidth < 1 || c.DispatchWidth < 1 || c.CommitWidth < 1:
		return fmt.Errorf("core: non-positive pipeline width")
	case c.FetchQSize < c.FetchWidth:
		return fmt.Errorf("core: fetch queue smaller than fetch width")
	case c.ROBSize < c.DispatchWidth:
		return fmt.Errorf("core: ROB smaller than dispatch width")
	case c.LSQSize < 1:
		return fmt.Errorf("core: non-positive LSQ size")
	case c.SteerLatency < 0:
		return fmt.Errorf("core: negative steer latency")
	}
	// Cache geometry (notably power-of-two line sizes: the fetch stage
	// derives its line shift from L1I.LineBytes at construction).
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// baseConfig fills the Table 2 parameters shared by all configurations.
func baseConfig() Config {
	return Config{
		FetchWidth:    8,
		DispatchWidth: 8,
		CommitWidth:   8,
		FetchQSize:    64,
		ROBSize:       256,
		LSQSize:       128,
		SteerLatency:  1,
		HopLatency:    1,
		Conv:          steering.DefaultConvConfig(),
		Bpred:         bpred.DefaultConfig(),
		Mem:           cache.DefaultHierarchy(),
	}
}

// PaperConfig builds one of the paper's machine configurations. clusters
// must be 4 or 8, iw (per-side issue width) 1 or 2, buses 1 or 2. Queue
// and register file sizes follow Table 2: 32+32+16 IQ entries and 64+64
// registers per cluster at 4 clusters; 16+16+16 and 48+48 at 8 clusters.
func PaperConfig(arch ArchKind, clusters, iw, buses int) (Config, error) {
	c := baseConfig()
	c.Arch = arch
	c.Clusters = clusters
	c.IssueInt, c.IssueFP = iw, iw
	c.Buses = buses
	switch clusters {
	case 4:
		c.IQInt, c.IQFP, c.IQComm = 32, 32, 16
		c.RegsInt, c.RegsFP = 64, 64
	case 8:
		c.IQInt, c.IQFP, c.IQComm = 16, 16, 16
		c.RegsInt, c.RegsFP = 48, 48
	default:
		return Config{}, fmt.Errorf("core: paper configurations have 4 or 8 clusters, not %d", clusters)
	}
	if iw != 1 && iw != 2 {
		return Config{}, fmt.Errorf("core: paper configurations have issue width 1 or 2, not %d", iw)
	}
	if buses != 1 && buses != 2 {
		return Config{}, fmt.Errorf("core: paper configurations have 1 or 2 buses, not %d", buses)
	}
	c.Name = fmt.Sprintf("%s_%dclus_%dbus_%dIW", arch, clusters, buses, iw)
	return c, nil
}

// MustPaperConfig is PaperConfig for known-good constant arguments.
func MustPaperConfig(arch ArchKind, clusters, iw, buses int) Config {
	c, err := PaperConfig(arch, clusters, iw, buses)
	if err != nil {
		panic(err)
	}
	return c
}

// WithSteer returns a copy of c using the given steering family, with the
// name adjusted ("+SSA" suffix for the simple policy).
func (c Config) WithSteer(s SteerKind) Config {
	c.Steer = s
	if s == SteerSimple {
		c.Name += "+SSA"
	}
	return c
}

// WithHopLatency returns a copy of c with the given bus hop latency.
func (c Config) WithHopLatency(h int) Config {
	c.HopLatency = h
	c.Name = fmt.Sprintf("%s_%dcyclehop", c.Name, h)
	return c
}
