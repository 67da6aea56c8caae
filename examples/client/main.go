// Command client exercises a running ringsimd: it submits the paper's
// Figure 6 grid (the ten Table 3 configurations × the full workload
// suite) as one sweep over HTTP, polls until the sweep finishes, and
// renders the Figure 6 speedup table from the returned results — the
// service-side twin of cmd/paperfigs.
//
// Start a server first, e.g.:
//
//	go run ./cmd/ringsimd -cache-dir /tmp/ringsim-cache
//
// then:
//
//	go run ./examples/client [-addr http://localhost:8080]
//	                         [-insts 300000] [-warmup 50000]
//
// Re-running the client is nearly instant: every run is served from the
// daemon's content-addressed cache.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// sweepStatus mirrors the server's sweep view, decoding only what the
// client needs.
type sweepStatus struct {
	ID        string           `json:"id"`
	Status    string           `json:"status"`
	Total     int              `json:"total"`
	Done      int              `json:"done"`
	Failed    int              `json:"failed"`
	CacheHits int              `json:"cache_hits"`
	Results   []results.Result `json:"results"`
	Error     string           `json:"error"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "ringsimd base URL")
	insts := flag.Uint64("insts", 300_000, "measured instructions per program")
	warmup := flag.Uint64("warmup", 50_000, "warm-up instructions (not measured)")
	flag.Parse()

	configs := harness.PaperConfigs()
	wire := make([]results.ConfigSpec, len(configs))
	for i := range configs {
		wire[i].Config = &configs[i]
	}
	programs := workload.Names()
	body := map[string]any{
		"configs":  wire,
		"programs": programs,
		"insts":    *insts,
		"warmup":   *warmup,
	}
	sw, err := submit(*addr, body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "client:", err)
		os.Exit(1)
	}
	fmt.Printf("submitted %s: %d runs (%d×%d grid)\n", sw.ID, sw.Total, len(configs), len(programs))

	for sw.Status == "running" || sw.Status == "queued" {
		time.Sleep(500 * time.Millisecond)
		sw, err = poll(*addr, sw.ID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "client:", err)
			os.Exit(1)
		}
		fmt.Printf("  %s: %d/%d done, %d cached\r", sw.ID, sw.Done+sw.Failed, sw.Total, sw.CacheHits)
	}
	fmt.Println()
	if sw.Status != "done" {
		fmt.Fprintf(os.Stderr, "client: sweep %s ended %s (%d failed)\n", sw.ID, sw.Status, sw.Failed)
		if sw.Error != "" {
			fmt.Fprintln(os.Stderr, "client:", sw.Error)
		}
		os.Exit(1)
	}

	// Rebuild the harness result map and let the harness render Figure 6
	// from it, exactly as a local Grid run would be reported.
	res := make(map[harness.Key]harness.Run, len(sw.Results))
	for _, r := range sw.Results {
		res[harness.Key{Config: r.Config, Workload: r.Program}] = harness.Run{Workload: r.Program, Stats: r.Stats}
	}
	fmt.Println()
	fmt.Print((&harness.Results{Main: res}).Fig6())
}

// submit POSTs the sweep and decodes the accepted view.
func submit(addr string, body map[string]any) (sweepStatus, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return sweepStatus{}, err
	}
	resp, err := http.Post(addr+"/v1/sweeps", "application/json", bytes.NewReader(b))
	return decodeSweep(resp, err, http.StatusAccepted)
}

// poll GETs the sweep's current view.
func poll(addr, id string) (sweepStatus, error) {
	resp, err := http.Get(addr + "/v1/sweeps/" + id)
	return decodeSweep(resp, err, http.StatusOK)
}

// decodeSweep decodes the sweep view of a reply that must carry the
// wanted status.
func decodeSweep(resp *http.Response, err error, want int) (sweepStatus, error) {
	if err != nil {
		return sweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return sweepStatus{}, apiError(resp)
	}
	var sw sweepStatus
	return sw, json.NewDecoder(resp.Body).Decode(&sw)
}

// apiError surfaces the server's {"error": …} body.
func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("unexpected status %s", resp.Status)
}
