package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/version"
)

// Spec names one recordable benchmark.
type Spec struct {
	// Name is the benchmark's short name ("Fig6Speedup"), matching the
	// Benchmark<Name> entry point in bench_test.go.
	Name string
	// Fn is the shared benchmark body.
	Fn func(*testing.B)
	// Headline marks the benchmarks the default benchrec run records:
	// the kernel-performance acceptance pair.
	Headline bool
}

// Specs lists every recordable benchmark in presentation order.
func Specs() []Spec {
	return []Spec{
		{Name: "Fig6Speedup", Fn: Fig6Speedup, Headline: true},
		{Name: "SampledGrid", Fn: SampledGrid, Headline: true},
		{Name: "SimulatorThroughput", Fn: SimulatorThroughput, Headline: true},
		{Name: "Table1AreaModel", Fn: Table1AreaModel},
		{Name: "Section32Layout", Fn: Section32Layout},
		{Name: "Fig7Comms", Fn: Fig7Comms},
		{Name: "Fig8Distance", Fn: Fig8Distance},
		{Name: "Fig9Contention", Fn: Fig9Contention},
		{Name: "Fig10NReady", Fn: Fig10NReady},
		{Name: "Fig11Distribution", Fn: Fig11Distribution},
		{Name: "Fig12WireScaling", Fn: Fig12WireScaling},
		{Name: "Fig13SSASpeedup", Fn: Fig13SSASpeedup},
		{Name: "Fig14SSANReady", Fn: Fig14SSANReady},
		{Name: "SweepSingleNode", Fn: SweepSingleNode},
		{Name: "SweepFleet2Workers", Fn: SweepFleet2Workers},
		{Name: "MultiProgram2", Fn: MultiProgram2, Headline: true},
		{Name: "MultiProgram4", Fn: MultiProgram4},
		{Name: "SynthSweep", Fn: SynthSweep},
		{Name: "TwinExplore", Fn: TwinExplore},
		{Name: "MixFairnessStudy", Fn: MixFairnessStudy},
		{Name: "WorkloadGenerator", Fn: WorkloadGenerator},
		{Name: "BusReservation", Fn: BusReservation},
		{Name: "Predictor", Fn: Predictor},
		{Name: "CacheAccess", Fn: CacheAccess},
		{Name: "MachineReset", Fn: MachineReset},
	}
}

// Result is one benchmark's measurement in a snapshot file.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_<n>.json snapshot schema ("ringsim-bench/1"): one
// record of the benchmark suite at a point in the repository's history.
// Successive snapshots (BENCH_1.json, BENCH_2.json, ...) form the
// performance trajectory.
type File struct {
	Schema     string    `json:"schema"`
	RecordedAt time.Time `json:"recorded_at"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"num_cpu"`
	// GOMAXPROCS is the worker-pool parallelism the grid benchmarks ran
	// with — without it two snapshots on the same machine are not
	// comparable (a container may cap it well below NumCPU).
	GOMAXPROCS int `json:"gomaxprocs"`
	// GitSHA is the repository revision the snapshot measured ("unknown"
	// when neither the build info nor git can supply one).
	GitSHA     string   `json:"git_sha"`
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// SchemaV1 is the current snapshot schema identifier.
const SchemaV1 = "ringsim-bench/1"

// Run measures one spec through testing.Benchmark and converts the
// result. Benchmark duration is governed by the test framework's
// -test.benchtime flag (set it via testing.Init + flag.Set in non-test
// binaries).
func Run(s Spec) (Result, error) {
	br := testing.Benchmark(s.Fn)
	if br.N == 0 {
		return Result{}, fmt.Errorf("bench: %s failed (zero iterations)", s.Name)
	}
	r := Result{
		Name:        s.Name,
		Iterations:  br.N,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if len(br.Extra) > 0 {
		r.Metrics = make(map[string]float64, len(br.Extra))
		for k, v := range br.Extra {
			r.Metrics[k] = v
		}
	}
	return r, nil
}

// NewFile wraps results in a snapshot with environment metadata.
func NewFile(note string, results []Result) File {
	return File{
		Schema:     SchemaV1,
		RecordedAt: time.Now().UTC().Truncate(time.Second),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA(),
		Note:       note,
		Benchmarks: results,
	}
}

// gitSHA resolves the repository revision being measured: the VCS stamp
// baked into the binary when present, otherwise (benchrec usually runs
// via `go run`, which does not stamp) the working tree's HEAD via git.
func gitSHA() string {
	if rev := version.Revision(); rev != "unknown" {
		return rev
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// NextSnapshotPath returns dir/BENCH_<n>.json for the smallest n ≥ 1 not
// already present.
func NextSnapshotPath(dir string) (string, error) {
	for n := 1; ; n++ {
		p := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(p); os.IsNotExist(err) {
			return p, nil
		} else if err != nil {
			return "", err
		}
	}
}

// WriteSnapshot marshals f to path (indented, trailing newline).
func WriteSnapshot(path string, f File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
