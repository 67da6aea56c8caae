// Command paperfigs regenerates every table and figure of the paper's
// evaluation section on the simulator. The figures' qualitative
// orderings are pinned by internal/harness/shapes_test.go; a
// paper-vs-measured record is ROADMAP item 4(d).
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

	start := time.Now()
	res, err := harness.RunAll(*insts, *warmup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simulated full grid in %v\n", time.Since(start).Round(time.Millisecond))

	switch *fig {
	case "6":
		fmt.Print(res.Fig6())
	case "7":
		fmt.Print(res.Fig7())
	case "8":
		fmt.Print(res.Fig8())
	case "9":
		fmt.Print(res.Fig9())
	case "10":
		fmt.Print(res.Fig10())
	case "11":
		fmt.Print(res.Fig11())
	case "12":
		fmt.Print(res.Fig12())
	case "13":
		fmt.Print(res.Fig13())
	case "14":
		fmt.Print(res.Fig14())
	case "ssa-drop":
		fmt.Print(res.SSADrop())
	case "all":
		fmt.Print(res.All())
	default:
		fmt.Fprintf(os.Stderr, "paperfigs: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
