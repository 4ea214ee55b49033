// Command benchmark is the repository's one repeatable benchmark: five
// workloads built from the exported constructors of internal/*, host-time
// and model-time end-to-end metrics, and a traced run for the per-layer
// numbers. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	// The driver passes --seconds on every run. The harness measures a fixed
	// amount of work instead (see reps), sized to about run_seconds on the
	// reference host, so the flag changes nothing.
	fs.Float64("seconds", 0, "accepted and ignored: a run always measures five repetitions")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two sets of runs: -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.jsonl B.jsonl")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if !w.manyWorlds {
		// One world is one core's work: the virtual clock runs its actors
		// one at a time, and handing them from one P to another only adds
		// cost (about a third on the reference host) and noise.
		runtime.GOMAXPROCS(1)
	}
	var (
		rep report
		err error
	)
	if *traced == 1 {
		var bf benchmarkFile
		if bf, err = readBenchmarkFile(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		rep, err = runTraced(w, *seed, 1, bf.PerLayer, microTarget)
	} else {
		rep, err = runEndToEnd(w, *seed, 1, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		return 1
	}
	return 0
}
