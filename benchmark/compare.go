package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// declared is BENCHMARK.json: the contract the driver reads, and the one
// place directions and bounds are written down.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	return &d, json.Unmarshal(b, &d)
}

// setupFloorS is the absolute change in setup_s below which `compare`
// sees no difference. Set-up is 3 ms in-process and 20 ms with a daemon,
// so a quarter of it is scheduler jitter; 0.1 s is the issue's 0.5 s
// scaled to these passes (a fifth of the issue's length), 2 to 5 % of one:
// less than any other metric's bound, so work moved into set-up that this
// floor hides cannot show as a gain elsewhere.
const setupFloorS = 0.1

// verdict judges one (metric, workload) of set b against set a. A change
// counts when it exceeds the tolerance: bound as a share of a's median,
// or the absolute floor if that is larger. A metric whose own runs
// spread wider than the tolerance cannot resolve a change of that size,
// so it is reported unresolved rather than same. worse is the relative
// change in the metric's bad direction (0 when a's median is 0).
func verdict(a, b summary, better string, bound, floor float64) (v string, worse float64) {
	diff := b.Median - a.Median
	if better == "higher" {
		diff = -diff
	}
	if a.Median != 0 {
		worse = diff / math.Abs(a.Median)
	}
	tol := max(bound*math.Abs(a.Median), floor)
	switch {
	case max(a.Max-a.Min, b.Max-b.Min) > tol:
		return "unresolved", worse
	case diff > tol:
		return "worse", worse
	case diff < -tol:
		return "better", worse
	}
	return "same", worse
}

// compareSets prints one row per (metric, workload) — every end-to-end
// metric on every workload, then the workload's gated metrics — and
// reports whether b is acceptable: nothing worse, no more failures.
func compareSets(w io.Writer, d *declared, a, b *setResult) (ok bool, err error) {
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		return false, fmt.Errorf("sets are not comparable: seed %d/%d, scale %g/%g, seconds %d/%d, GOMAXPROCS %d/%d",
			a.Seed, b.Seed, a.Scale, b.Scale, a.Seconds, b.Seconds, a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	}
	if a.Host.Noisy || b.Host.Noisy {
		fmt.Fprintln(w, "warning: a set was measured on a loaded host")
	}
	direction := make(map[string]string)
	for _, m := range d.PerLayer {
		direction[m.Name] = m.Better
	}
	ok = true
	row := func(wl, name string, sa, sb summary, better string, bound, floor float64) {
		v, worse := verdict(sa, sb, better, bound, floor)
		if v == "worse" {
			ok = false
		}
		fmt.Fprintf(w, "%-16s %-28s %12.6g %25s %12.6g %25s %+7.1f%%  %s\n", wl, name,
			sa.Median, fmt.Sprintf("[%.6g, %.6g]", sa.Min, sa.Max),
			sb.Median, fmt.Sprintf("[%.6g, %.6g]", sb.Min, sb.Max), 100*worse, v)
	}
	fmt.Fprintf(w, "%-16s %-28s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "a median", "a [min, max]", "b median", "b [min, max]", "worse by", "verdict")
	for _, wl := range d.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from a set", wl.Name)
		}
		for _, m := range d.EndToEnd {
			floor := 0.0
			if m.Name == mSetup {
				floor = setupFloorS
			}
			row(wl.Name, m.Name, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], m.Better, *m.Bound, floor)
		}
		for _, g := range gated {
			if g.workload == wl.Name {
				row(wl.Name, g.name, wa.Gated[g.name], wb.Gated[g.name], direction[g.name], g.bound, 0)
			}
		}
		fa, fb := float64(wa.Failed)/float64(max(1, wa.Attempted)), float64(wb.Failed)/float64(max(1, wb.Attempted))
		v := "same"
		if fb > fa {
			v, ok = "worse", false
		}
		fmt.Fprintf(w, "%-16s %-28s %12.6g %25s %12.6g %25s %8s  %s\n", wl.Name, "failed_frac", fa, "", fb, "", "", v)
	}
	return ok, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./benchmark compare a.json b.json")
		return 2
	}
	d, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	var sets [2]setResult
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	ok, err := compareSets(os.Stdout, d, &sets[0], &sets[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}
