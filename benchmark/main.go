// Command benchmark is the cdrc repository's benchmark: four closed-loop
// workloads from the embedded versioned map to the pipelined TCP service,
// every reply checked for correctness, and a traced mode that times each
// layer's public API on the same op stream. README.md describes the
// workloads, the metrics and how to compare two commits.
//
//	bash benchmark/run.sh --workload service-read --seed 1 --seconds 10 --trace 0
//	go -C benchmark run .                      # all four workloads
//	go -C benchmark run . -compare base.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// summary is the last line of every run's output: end-to-end metrics
// from an untraced run, per-layer metrics from a traced one. A run of all
// workloads prefixes each metric with its workload's name.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "one of "+strings.Join(names, ", ")+" (default: all, in turn)")
	seed := fs.Uint64("seed", 1, "seed of the generated op streams and preloaded values")
	secs := fs.Float64("seconds", 10, "measured seconds per workload, shared by its set-ups (8 untraced, 2 traced), each warmed up for a sixth of its share first")
	trace := fs.String("trace", "0", `"0" reports the end-to-end metrics; "1" or a directory runs traced, reports the per-layer metrics and writes the span file there (default .bench_build/spans)`)
	compare := fs.Bool("compare", false, "compare result files instead of running: -compare base.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *secs <= 0 {
		fs.Usage()
		return 2
	}
	o := opts{seed: *seed, measure: time.Duration(*secs * float64(time.Second))}
	switch *trace {
	case "0":
	case "1":
		o.traceDir = ".bench_build/spans"
	default:
		o.traceDir = *trace
	}
	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		ws = []*workload{w}
	}

	enc := json.NewEncoder(stdout)
	sum := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range ws {
		fmt.Fprintf(stderr, "benchmark: %s (seed %d, %v, traced %v)\n", w.name, o.seed, o.measure, o.traceDir != "")
		r, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		for _, g := range r.Gates {
			fmt.Fprintf(stderr, "benchmark: %s: gate failed: %s\n", w.name, g)
		}
		if err := enc.Encode(r); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			sum.Metrics[k] = v
		}
	}
	if err := enc.Encode(&sum); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !sum.Correct {
		fmt.Fprintln(stderr, "benchmark: correctness gates failed")
		return 1
	}
	return 0
}
