// Command repro regenerates every table and figure of the paper
// "Optimization of Nested Queries in a Complex Object Model" (EDBT 1994)
// plus the performance experiments derived from its claims; run
// `go run ./cmd/repro -list` for the index.
//
// Usage:
//
//	repro            # run the full suite
//	repro -exp T1    # run one experiment (T1 T2 Q12 CB SB S8 EQ B1..B5)
//	repro -quick     # smaller workloads (CI-sized)
//	repro -list      # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tmdb/internal/benchkit"
)

func main() {
	var (
		expID = flag.String("exp", "", "experiment id to run (default: all)")
		quick = flag.Bool("quick", false, "use CI-sized workloads")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	exps := benchkit.All()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.ID, e.Short)
		}
		return
	}
	ran := 0
	for _, e := range exps {
		if *expID != "" && !strings.EqualFold(e.ID, *expID) {
			continue
		}
		fmt.Printf("\n######## %s — %s ########\n", e.ID, e.Short)
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
		os.Exit(2)
	}
}
