// Package results defines the durable form of a simulation run: a
// canonical JSON encoding of the request (json.Marshal of wire structs
// whose fields are declared in key order), a SHA-256 content hash derived
// from it, and the serializable result record keyed by that hash.
//
// The content hash is the system's unit of deduplication: any
// (config, workload, insts, warmup) tuple — the workload spec pins every
// stream's program, budget and seed, so the tuple pins the instruction
// streams exactly — simulated once under a given schema version never
// needs to be simulated again. Single-stream workloads with default
// knobs encode as the historical bare-program form, so their keys (and
// every cache entry made before multi-programming existed) are stable
// across the refactor. The CLI's -json output, the on-disk cache layout, and
// the ringsimd HTTP API all speak this one encoding.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// SchemaVersion is folded into every content hash. Bump it when the
// meaning of an existing field changes in a way that invalidates cached
// results without changing the encoded bytes (e.g. a simulator timing
// fix). Purely structural changes — adding or renaming fields — already
// change the hash on their own.
const SchemaVersion = 1

// Stream is the wire form of one workload stream of a multi-programmed
// request. Fields are declared in key order, so json.Marshal writes the
// canonical encoding.
type Stream struct {
	Insts   uint64 `json:"insts,omitempty"`
	Program string `json:"program"`
	Seed    uint64 `json:"seed,omitempty"`
}

// Request mirrors harness.Request in wire form. Field names are the
// public schema; the golden hash test pins them.
//
// A workload is encoded one of two ways: the single-program shorthand
// (one stream, default budget and seed) rides the historical "program"
// field — byte-for-byte the pre-multiprogramming encoding, so every
// existing content key and cached result stays valid — and anything else
// rides "streams" with "program" empty.
//
// Fields are declared in key order, here and in every struct the request
// reaches, so json.Marshal writes the canonical encoding
// (TestWireFieldsInKeyOrder).
type Request struct {
	Config  core.Config `json:"config"`
	Insts   uint64      `json:"insts"`
	Program string      `json:"program"`
	// Sampled carries the interval-sampling parameters of a sampled
	// request and is omitted entirely for exact requests, so every
	// historical exact content key is untouched while sampled results
	// can never collide with exact ones.
	Sampled *SampledParams `json:"sampled,omitempty"`
	Schema  int            `json:"schema"`
	Streams []Stream       `json:"streams,omitempty"`
	Warmup  uint64         `json:"warmup"`
}

// ConfigSpec is the wire form of one machine configuration: either a
// full core.Config under "config", or the Table 3 shorthand under
// "paper" (so curl users don't have to spell out every Table 2 field).
// Exactly one must be set.
type ConfigSpec struct {
	Config *core.Config `json:"config,omitempty"`
	Paper  *PaperSpec   `json:"paper,omitempty"`
}

// PaperSpec names a paper configuration the way the CLI flags do.
type PaperSpec struct {
	// Arch is "ring" or "conv".
	Arch string `json:"arch"`
	// Clusters is 4 or 8.
	Clusters int `json:"clusters"`
	// IW is the per-side issue width, 1 or 2.
	IW int `json:"iw"`
	// Buses is 1 or 2.
	Buses int `json:"buses"`
	// Hop is the bus latency per hop; 0 means the default (1 cycle).
	Hop int `json:"hop,omitempty"`
	// Steer is "enhanced" (default) or "ssa".
	Steer string `json:"steer,omitempty"`
}

// Resolve produces the concrete configuration.
func (c ConfigSpec) Resolve() (core.Config, error) {
	switch {
	case c.Config != nil && c.Paper != nil:
		return core.Config{}, errors.New(`set "config" or "paper", not both`)
	case c.Config != nil:
		return *c.Config, nil
	case c.Paper != nil:
		return c.Paper.Resolve()
	default:
		return core.Config{}, errors.New(`missing "config" or "paper"`)
	}
}

// Resolve builds the named Table 3 configuration.
func (p PaperSpec) Resolve() (core.Config, error) {
	var arch core.ArchKind
	switch strings.ToLower(p.Arch) {
	case "ring":
		arch = core.ArchRing
	case "conv":
		arch = core.ArchConv
	default:
		return core.Config{}, fmt.Errorf("unknown arch %q (want ring or conv)", p.Arch)
	}
	cfg, err := core.PaperConfig(arch, p.Clusters, p.IW, p.Buses)
	if err != nil {
		return core.Config{}, err
	}
	// 0 means unset; any other value (including invalid negatives) is
	// applied so Config.Validate rejects it.
	if p.Hop != 0 && p.Hop != 1 {
		cfg = cfg.WithHopLatency(p.Hop)
	}
	switch strings.ToLower(p.Steer) {
	case "", "enhanced":
	case "ssa":
		cfg = cfg.WithSteer(core.SteerSimple)
	default:
		return core.Config{}, fmt.Errorf("unknown steer %q (want enhanced or ssa)", p.Steer)
	}
	return cfg, nil
}

// SampledParams is the wire form of harness.Sampling (fidelity folded
// into the canonical request bytes). Fields are declared in key order,
// so json.Marshal writes the canonical encoding.
type SampledParams struct {
	Interval uint64 `json:"interval"`
	Warm     uint64 `json:"warm"`
	Window   uint64 `json:"window"`
}

// NewRequest wraps a harness request in its wire form.
func NewRequest(req harness.Request) Request {
	r := Request{
		Schema: SchemaVersion,
		Config: req.Config,
		Insts:  req.Insts,
		Warmup: req.Warmup,
	}
	if sp := req.Sampling; sp.Enabled() {
		r.Sampled = &SampledParams{Interval: sp.Interval, Window: sp.Window, Warm: sp.Warm}
	}
	if name, ok := req.Workload.SingleProgram(); ok {
		r.Program = name
		return r
	}
	r.Streams = make([]Stream, len(req.Workload.Streams))
	for i, s := range req.Workload.Streams {
		r.Streams[i] = Stream{Program: s.Program, Insts: s.Insts, Seed: s.Seed}
	}
	return r
}

// Spec reassembles the workload spec the request names.
func (r Request) Spec() workload.Spec {
	if len(r.Streams) == 0 {
		return workload.Single(r.Program)
	}
	streams := make([]workload.StreamSpec, len(r.Streams))
	for i, s := range r.Streams {
		streams[i] = workload.StreamSpec{Program: s.Program, Insts: s.Insts, Seed: s.Seed}
	}
	return workload.Spec{Streams: streams}
}

// WorkloadLabel is the request's canonical workload label (the program
// name for single-stream requests).
func (r Request) WorkloadLabel() string { return r.Spec().Name() }

// Harness converts the wire form back into an executable request.
func (r Request) Harness() harness.Request {
	hr := harness.Request{
		Config:   r.Config,
		Workload: r.Spec(),
		Insts:    r.Insts,
		Warmup:   r.Warmup,
	}
	if r.Sampled != nil {
		hr.Sampling = harness.Sampling{Interval: r.Sampled.Interval, Window: r.Sampled.Window, Warm: r.Sampled.Warm}
	}
	return hr
}

// Canonical returns the canonical JSON encoding of the request: object
// keys sorted at every nesting level, no insignificant whitespace. The
// wire structs declare their fields in key order, so this is json.Marshal.
// Two requests have equal canonical bytes iff they describe the same
// simulation.
func (r Request) Canonical() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("results: encode request: %w", err)
	}
	return b, nil
}

// Key returns the SHA-256 content hash (lowercase hex) of the canonical
// encoding. It is the run's identity everywhere: cache filename, HTTP run
// id, and dedup key.
func (r Request) Key() (string, error) {
	b, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Result is the serializable outcome of one run, self-describing enough
// to rebuild a harness.Run (minus the full Config, which the key pins).
type Result struct {
	// Key is the content hash of the request that produced this result.
	Key string `json:"key"`
	// Config is the configuration name (e.g. "Ring_8clus_1bus_2IW").
	Config string `json:"config"`
	// Program is the workload's canonical label: the profile name for
	// single-stream runs, the "+"-joined spec string for mixes.
	Program string `json:"program"`
	// Class is the workload's suite class ("INT", "FP" or "MIX").
	Class string `json:"class"`
	// Stats holds every counter the run measured. For sampled runs they
	// are extrapolated from the measured windows (see Sampled).
	Stats core.Stats `json:"stats"`
	// Sampled carries the sampling accounting and per-metric standard
	// errors of a sampled run; exact results omit it.
	Sampled *harness.SampledInfo `json:"sampled,omitempty"`
	// Err is the simulation error, empty on success.
	Err string `json:"error,omitempty"`
}

// FromRun converts an executed run into its durable record. The key is
// recomputed from the originating request so record and cache can never
// disagree about identity.
func FromRun(req harness.Request, run harness.Run) (Result, error) {
	key, err := NewRequest(req).Key()
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Key:     key,
		Config:  run.Config.Name,
		Program: run.Workload,
		Class:   run.Class.String(),
		Stats:   run.Stats,
		Sampled: run.Sampled,
	}
	if run.Err != nil {
		out.Err = run.Err.Error()
	}
	return out, nil
}

// Failed reports whether the recorded run ended in error.
func (r Result) Failed() bool { return r.Err != "" }
