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
// It is also the CI entrypoint for the declarative scenario suite
// (SCENARIOS.md):
//
//	experiments -scenario examples/scenarios               # gate the whole suite
//	experiments -scenario examples/scenarios/diurnal.toml -seeds 16
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"packetradio/internal/experiments"
	"packetradio/internal/scenario"
)

func main() {
	only := flag.String("only", "", "run a single experiment (e.g. E3)")
	list := flag.Bool("list", false, "list experiments and exit")
	scenarioFlag := flag.String("scenario", "", "evaluate a scenario file, or every .json/.toml scenario in a directory, against its gates; exit 1 if any gate fails")
	seeds := flag.Int("seeds", 0, "scenario mode: seeds per scenario (0 = each scenario's gates.seeds)")
	flag.Parse()

	if *scenarioFlag != "" {
		runScenarios(*scenarioFlag, *seeds)
		return
	}
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

// runScenarios is the scenario-suite mode: evaluate one file, or every
// scenario in a directory (sorted by name, so the report order is
// stable), and exit 1 if any gate fails.
func runScenarios(path string, seeds int) {
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	files := []string{path}
	if info.IsDir() {
		files = nil
		entries, err := os.ReadDir(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, e := range entries {
			if ext := filepath.Ext(e.Name()); !e.IsDir() && (ext == ".json" || ext == ".toml") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			fmt.Fprintf(os.Stderr, "experiments: no .json or .toml scenarios in %s\n", path)
			os.Exit(2)
		}
	}
	failed := 0
	for i, f := range files {
		if i > 0 {
			fmt.Println()
		}
		sc, err := scenario.Load(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rep, err := scenario.Evaluate(sc, seeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rep.WriteText(os.Stdout)
		if !rep.Pass() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d scenarios failed their gates\n", failed, len(files))
		os.Exit(1)
	}
}
