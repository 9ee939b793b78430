// Experiments regenerates the paper's evaluation — both figures and
// every quantified claim (see DESIGN.md §4 for the index and
// EXPERIMENTS.md for expected-vs-measured). Runs the full suite in a
// few seconds of wall clock; everything is deterministic.
//
// Usage:
//
//	experiments            # every experiment, in experiments.Registry order
//	experiments -only E2   # a single experiment
//	experiments -list      # show the index
//
// The declarative scenario suite (SCENARIOS.md) runs through
// prsim -scenario.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"packetradio/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (e.g. E3)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return
	}
	ran := 0
	for _, e := range experiments.Registry() {
		if *only != "" && !strings.EqualFold(*only, e.ID) {
			continue
		}
		e.Run(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *only)
		os.Exit(1)
	}
}
