package main

// The attach subcommand: re-attach to work submitted to a ringsimd —
// including work submitted to a previous process generation that has
// since crashed and restarted. Every durable id the service hands out
// resolves here: sweep-… and explore-… ids are re-registered from the
// coordinator's journal manifests or answered from a done one, and a bare
// 64-hex content key polls a single run. Attach never resubmits
// anything; it only observes.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"time"

	"repro/internal/dse"
	"repro/internal/results"
)

// attachView decodes the union of the server's run, sweep and explore
// views — only the fields attach renders.
type attachView struct {
	ID        string           `json:"id"`
	Status    string           `json:"status"`
	Total     int              `json:"total"`
	Done      int              `json:"done"`
	Failed    int              `json:"failed"`
	CacheHits int              `json:"cache_hits"`
	Results   []results.Result `json:"results"`
	Cached    bool             `json:"cached"`
	Result    *results.Result  `json:"result"`
	Evaluated int              `json:"evaluated"`
	SpaceSize int              `json:"space_size"`
	Frontier  []dse.Point      `json:"frontier"`
	Error     string           `json:"error"`
}

var runKeyRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// attachMain runs `ringsim attach <id>`.
func attachMain(args []string) {
	fs := flag.NewFlagSet("ringsim attach", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "ringsimd base URL")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval")
	asJSON := fs.Bool("json", false, "emit the final view as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: ringsim attach [-addr URL] <sweep-…|explore-…|64-hex run key>")
	}
	id := fs.Arg(0)

	var path string
	switch {
	case strings.HasPrefix(id, "sweep-"):
		path = "/v1/sweeps/"
	case strings.HasPrefix(id, "explore-"):
		path = "/v1/explore/"
	case runKeyRe.MatchString(id):
		path = "/v1/runs/"
	default:
		fatalf("unrecognized id %q: want sweep-…, explore-…, or a 64-hex run key", id)
	}

	v, err := fetchView(*addr + path + id)
	if err != nil {
		fatalf("%v", err)
	}
	for v.Status == "running" || v.Status == "queued" {
		if !*asJSON {
			fmt.Fprintf(os.Stderr, "  %s: %s%s\r", id, v.Status, attachProgress(v))
		}
		time.Sleep(*interval)
		if v, err = fetchView(*addr + path + id); err != nil {
			fatalf("%v", err)
		}
	}
	if !*asJSON {
		fmt.Fprintln(os.Stderr)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fatalf("%v", err)
		}
	} else {
		printAttached(id, v)
	}
	if v.Status != "done" {
		os.Exit(1)
	}
}

// attachProgress renders the in-flight counter suffix for the id kind.
func attachProgress(v attachView) string {
	if v.Total > 0 {
		return fmt.Sprintf(" %d/%d done, %d cached", v.Done+v.Failed, v.Total, v.CacheHits)
	}
	if v.SpaceSize > 0 {
		return fmt.Sprintf(" %d/%d evaluated", v.Evaluated, v.SpaceSize)
	}
	return ""
}

// printAttached renders the terminal view for humans.
func printAttached(id string, v attachView) {
	if v.Status != "done" {
		fmt.Fprintf(os.Stderr, "ringsim: %s ended %s", id, v.Status)
		if v.Failed > 0 {
			fmt.Fprintf(os.Stderr, " (%d failed)", v.Failed)
		}
		if v.Error != "" {
			fmt.Fprintf(os.Stderr, ": %s", v.Error)
		}
		fmt.Fprintln(os.Stderr)
		return
	}
	switch {
	case v.Result != nil: // single run
		r := v.Result
		fmt.Printf("%s  %s  IPC %.4f  (cached=%v)\n", r.Config, r.Program, r.Stats.IPC(), v.Cached)
	case len(v.Frontier) > 0: // exploration
		fmt.Printf("%s: %d/%d evaluated, frontier %d\n", id, v.Evaluated, v.SpaceSize, len(v.Frontier))
		fmt.Printf("%-32s %10s %14s\n", "configuration", "IPC", "area λ²")
		for _, p := range v.Frontier {
			fmt.Printf("%-32s %10.4f %14.0f\n", p.Config, p.Objectives.IPC, p.Objectives.Area)
		}
	default: // sweep
		fmt.Printf("%s: %d/%d done, %d cached\n", id, v.Done, v.Total, v.CacheHits)
		fmt.Printf("%-28s %-24s %10s\n", "configuration", "workload", "IPC")
		for _, r := range v.Results {
			fmt.Printf("%-28s %-24s %10.4f\n", r.Config, r.Program, r.Stats.IPC())
		}
	}
}

// fetchView GETs and decodes one status view; a 404 is reported as-is
// (the service neither knows the id nor holds a final reply for it).
func fetchView(url string) (attachView, error) {
	resp, err := http.Get(url)
	if err != nil {
		return attachView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return attachView{}, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return attachView{}, fmt.Errorf("unexpected status %s", resp.Status)
	}
	var v attachView
	return v, json.NewDecoder(resp.Body).Decode(&v)
}
