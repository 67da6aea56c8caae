// Command paperfigs regenerates every table and figure of the paper's
// evaluation section on the simulator. The figures' qualitative
// orderings are pinned by internal/harness/shapes_test.go; a
// paper-vs-measured record is ROADMAP item 5(c).
//
// Usage:
//
//	paperfigs [-insts N] [-warmup N] [-fig 6|7|8|9|10|11|12|13|14|ssa-drop|all] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
)

// figures maps each -fig value to the rendering it selects.
var figures = map[string]func(*harness.Results) string{
	"6":        (*harness.Results).Fig6,
	"7":        (*harness.Results).Fig7,
	"8":        (*harness.Results).Fig8,
	"9":        (*harness.Results).Fig9,
	"10":       (*harness.Results).Fig10,
	"11":       (*harness.Results).Fig11,
	"12":       (*harness.Results).Fig12,
	"13":       (*harness.Results).Fig13,
	"14":       (*harness.Results).Fig14,
	"ssa-drop": (*harness.Results).SSADrop,
	"all":      (*harness.Results).All,
}

func main() {
	insts := flag.Uint64("insts", 300_000, "measured instructions per program")
	warmup := flag.Uint64("warmup", 50_000, "warm-up instructions per program (not measured)")
	fig := flag.String("fig", "all", "which figure to print (6..14, ssa-drop, all)")
	list := flag.Bool("list", false, "print the Table 3 configuration list and exit")
	flag.Parse()

	if *list {
		fmt.Println("Table 3: evaluated configurations")
		for _, c := range harness.PaperConfigs() {
			fmt.Printf("  %-24s %d clusters, %d INT + %d FP issue, %d bus(es)\n",
				c.Name, c.Clusters, c.IssueInt, c.IssueFP, c.Buses)
		}
		return
	}

	// Checked before simulating: the grid below takes minutes at the
	// default budget.
	render, ok := figures[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "paperfigs: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	start := time.Now()
	res, err := harness.RunAll(*insts, *warmup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simulated full grid in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Print(render(res))
}
