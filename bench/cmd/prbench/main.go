// Command prbench is the packet-radio simulator's wall-clock
// benchmark. See bench/README.md.
//
//	prbench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-json]
//	prbench compare [-spec BENCHMARK.json] base.jsonl head.jsonl
//	prbench verify [-seed N] [-seconds S]
//
// The last line of a run's output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when a
// correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"packetradio/bench"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case "verify":
			os.Exit(verify(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("prbench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "world seed")
	seconds := fs.Float64("seconds", 10, "size the timed window to about this many wall seconds on the reference machine")
	trace := fs.Int("trace", 0, "1 adds a profiled window and prints the per-layer metrics")
	asJSON := fs.Bool("json", false, "print each workload's result as one JSON line (for prbench compare)")
	fs.Parse(args)

	workloads := bench.Workloads
	if *name != "all" {
		w, err := bench.Lookup(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prbench:", err)
			return 2
		}
		workloads = []*bench.Workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "prbench: -trace takes 0 or 1")
		return 2
	}

	summary := struct {
		Correct   bool                        `json:"correct"`
		Attempted uint64                      `json:"attempted"`
		Failed    uint64                      `json:"failed"`
		Metrics   map[string]bench.RecordItem `json:"metrics"`
	}{Correct: true, Metrics: map[string]bench.RecordItem{}}
	endToEnd := map[string]bool{}
	for _, m := range bench.EndToEnd {
		endToEnd[m.Name] = true
	}

	for _, w := range workloads {
		res := bench.Run(w, bench.Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1})
		if *asJSON {
			b, err := json.Marshal(bench.NewRecord(res))
			if err != nil {
				fmt.Fprintln(os.Stderr, "prbench:", err)
				return 1
			}
			fmt.Println(string(b))
		} else {
			printResult(res)
		}
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "prbench: check failed:", f)
		}
		summary.Correct = summary.Correct && res.Correct()
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for _, m := range res.Metrics {
			// The summary carries the end-to-end metrics of an untraced
			// run, or the per-layer metrics of a traced one.
			if endToEnd[m.Name] == (*trace == 1) {
				continue
			}
			key := m.Name
			if len(workloads) > 1 {
				key = w.Name + "." + m.Name
			}
			summary.Metrics[key] = bench.RecordItem{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !summary.Correct {
		return 1
	}
	return 0
}

func printResult(r *bench.Result) {
	fmt.Printf("%s seed %d: %s\n", r.Workload, r.Seed, r.Digest)
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	for _, m := range r.Metrics {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, m.Value, m.Unit)
	}
	tw.Flush()
}

func compare(args []string) int {
	fs := flag.NewFlagSet("prbench compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: prbench compare [-spec BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	spec, err := bench.ReadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prbench:", err)
		return 2
	}
	base, err := bench.ReadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "prbench:", err)
		return 2
	}
	head, err := bench.ReadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "prbench:", err)
		return 2
	}
	verdicts := bench.Compare(base, head, spec)
	if len(verdicts) == 0 {
		fmt.Fprintln(os.Stderr, "prbench: no workload appears in both files")
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tverdict\twhy")
	status := 0
	for _, v := range verdicts {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%s\n",
			v.Workload, v.Metric, v.Base[1], v.Base[0], v.Base[2], v.Head[1], v.Head[0], v.Head[2], v.Label, v.Why)
		if v.Label == "slower" {
			status = 1
		}
	}
	tw.Flush()
	return status
}

func verify(args []string) int {
	fs := flag.NewFlagSet("prbench verify", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "world seed")
	seconds := fs.Float64("seconds", 10, "window size, as for a benchmark run")
	fs.Parse(args)
	if err := bench.Verify(os.Stdout, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "prbench verify:", err)
		return 1
	}
	return 0
}
