// Command icgbench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated substrates. Each experiment prints rows
// mirroring the corresponding figure; latencies are always reported in
// model time (the paper's axes).
//
// Experiments run on the virtual clock: a deterministic discrete-event
// scheduler that never sleeps, so whole-figure sweeps finish at CPU speed
// and the same seed reproduces byte-identical output.
//
// Usage:
//
//	icgbench -list            # every experiment, scenario, profile
//	icgbench -exp fig5        # one experiment
//	icgbench -quick           # the default, -exp paper: the seven figures, then the claim ledger
//	icgbench -fault-json BENCH_paper.json   # the full-size ledger: paper vs reproduced, tolerance, pass
//
// Beyond the paper's figures: ablations; faultstudy — YCSB under a
// deterministic fault schedule (-faults selects the scenario); failover —
// leader partition and recovery;
// overload — metastable retry storm vs admission control; sweep — quorum x
// geography; capacity — the sharded-plane capacity study (open-loop session
// storms vs shard count, a million sessions on one virtual clock at full
// size); and hunt — the nemesis hunt: a sweep of seeds x composed
// fault-track profiles, every recorded history run through every checker,
// each violating world shrunk by delta debugging into a replayable repro:
//
//	icgbench -exp hunt -hunt-seeds 1000            # the nightly budget, every profile
//	icgbench -exp hunt -hunt-plant                 # self-test: find the planted bug
//	icgbench -exp hunt -repro hunt-repros/x.json   # replay an archived repro
//
// The fault experiments (faultstudy, failover, overload, capacity) always
// verify the history of a checked session population, and faultstudy and
// failover always print their applied fault transitions. Checked
// experiments exit 3 when a consistency violation is found; the seed
// replays it byte-identically.
//
// To see where the host's time and memory go in any of them (the model's
// numbers do not change under a profiler; inspect with `go tool pprof`):
//
//	icgbench -exp fig11 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"correctables/internal/bench"
	"correctables/internal/faults"
)

// experiment is one icgbench entry: the single registry below generates
// the -exp help text and the -list output, so they cannot drift apart.
type experiment struct {
	name string
	desc string
	// json and trace mark the experiments that write the -fault-json
	// report and the -trace artifact.
	json, trace bool
	run         func(bench.Config) string
}

var experiments = []experiment{
	{name: "paper", desc: "the seven figure drivers, then the claim ledger (the default)", json: true,
		run: scenario(func(c bench.Config) (bench.Result, error) { return bench.Paper(c), nil })},
	{name: "fig5", desc: "single-request latency per level (Cassandra binding)",
		run: func(c bench.Config) string { return bench.FormatFig5(bench.Fig5(c)) }},
	{name: "fig6", desc: "YCSB latency vs throughput",
		run: func(c bench.Config) string { return bench.FormatFig6(bench.Fig6(c)) }},
	{name: "fig8", desc: "divergence (Fig 7) and bandwidth overhead (Fig 8) of incremental views, one world per cell",
		run: func(c bench.Config) string {
			div, bw := bench.Fig8(c)
			return bench.FormatFig7(div) + bench.FormatFig8(bw)
		}},
	{name: "fig9", desc: "ZooKeeper latency gaps per level",
		run: func(c bench.Config) string { return bench.FormatFig9(bench.Fig9(c)) }},
	{name: "fig10", desc: "dequeue bandwidth (Correctable ZK queue)",
		run: func(c bench.Config) string { return bench.FormatFig10(bench.Fig10(c)) }},
	{name: "fig11", desc: "speculation case studies",
		run: func(c bench.Config) string { return bench.FormatFig11(bench.Fig11(c)) }},
	{name: "fig12", desc: "ticket selling end-to-end",
		run: func(c bench.Config) string { return bench.FormatFig12(bench.Fig12(c)) }},
	{name: "ablations", desc: "replication-lag and flush-cost ablations",
		run: func(c bench.Config) string {
			return bench.FormatAblationLag(bench.AblationReplicationLag(c)) +
				bench.FormatAblationFlush(bench.AblationFlushCost(c))
		}},
	{name: "faultstudy", desc: "YCSB under a deterministic fault schedule (-faults), history-checked", json: true, trace: true,
		run: scenario(func(c bench.Config) (bench.Result, error) { return bench.FaultStudy(c) })},
	{name: "failover", desc: "leader partition mid-run: recovery time and availability window", json: true, trace: true,
		run: scenario(func(c bench.Config) (bench.Result, error) { return bench.Failover(c) })},
	{name: "overload", desc: "open-loop burst: metastable retry storm vs admission control", json: true, trace: true,
		run: scenario(func(c bench.Config) (bench.Result, error) { return bench.Overload(c) })},
	{name: "sweep", desc: "read latency vs quorum size and RTT geography", json: true,
		run: scenario(func(c bench.Config) (bench.Result, error) { return bench.Sweep(c), nil })},
	{name: "capacity", desc: "sharded-plane capacity study: 10^6 open-loop sessions vs shard count", json: true,
		run: scenario(func(c bench.Config) (bench.Result, error) { return bench.Capacity(c), nil })},
	{name: "hunt", desc: "nemesis hunt: seeds x composed fault tracks, all checkers, shrinking repros", json: true,
		run: scenario(func(c bench.Config) (bench.Result, error) { return bench.Hunt(c, huntOptions()) })},
}

// expNames lists, in registry order, the experiments that satisfy has.
func expNames(has func(experiment) bool) []string {
	var out []string
	for _, e := range experiments {
		if has(e) {
			out = append(out, e.name)
		}
	}
	return out
}

func anyExp(experiment) bool     { return true }
func jsonExp(e experiment) bool  { return e.json }
func traceExp(e experiment) bool { return e.trace }

// checkArtifacts rejects an artifact flag that none of the selected
// experiments would honour, before anything runs: a run that exits 0
// having written nothing reads as success.
func checkArtifacts(selected []string, faultJSON, traceOut string) error {
	for _, a := range []struct {
		flag, path string
		has        func(experiment) bool
	}{
		{"-fault-json", faultJSON, jsonExp},
		{"-trace", traceOut, traceExp},
	} {
		if a.path == "" {
			continue
		}
		honoured := slices.ContainsFunc(selected, func(name string) bool {
			e, _ := expByName(name)
			return a.has(e)
		})
		if !honoured {
			return fmt.Errorf("%s %s: none of the selected experiments (%s) writes it; supported by %s",
				a.flag, a.path, strings.Join(selected, ", "), strings.Join(expNames(a.has), ", "))
		}
	}
	return nil
}

func expByName(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// Flags consulted by individual experiment entries.
var (
	faultJSON    string
	traceOut     string
	huntSeeds    int
	huntProfiles string
	huntWorkers  int
	huntPlant    bool
	reproDir     string
)

// exitOn reports a non-nil err and exits with status code: 2 for bad
// input, 1 for a failed write.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "icgbench: %v\n", err)
		os.Exit(code)
	}
}

// writeArtifact exits on a failed artifact write (JSON report or trace).
func writeArtifact(path string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "icgbench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
}

// scenario adapts a scenario experiment to a registry entry — the one
// runner behind paper, faultstudy, failover, overload, sweep, capacity and hunt:
// run it, write the -fault-json report and the -trace Chrome trace-event
// artifact (Perfetto-loadable; byte-identical across same-seed runs), and
// return the printed report. A run whose consistency checks found
// violations prints its report, archives hunt repros, and exits with the
// consistency-gate status 3.
func scenario(run func(bench.Config) (bench.Result, error)) func(bench.Config) string {
	return func(c bench.Config) string {
		res, err := run(c)
		exitOn(err, 2)
		if faultJSON != "" {
			writeArtifact(faultJSON, bench.WriteReport(faultJSON, res))
		}
		if trc, reg := res.Traced(); trc != nil && traceOut != "" {
			writeArtifact(traceOut, bench.WriteTrace(traceOut, trc, reg))
		}
		out := res.Format()
		if n := res.Violations(); n > 0 {
			if hunt, ok := res.(*bench.HuntResult); ok {
				archiveRepros(hunt)
			}
			fmt.Print(out)
			fmt.Fprintf(os.Stderr, "icgbench: consistency check FAILED with %d violations (seed %d replays them byte-identically)\n",
				n, c.Seed)
			os.Exit(3)
		}
		return out
	}
}

// startProfiles begins a CPU profile of everything that runs from here on
// (cpuPath set) and returns the function that ends it and writes the
// allocation profile (memPath set): every allocation since the process
// started, sampled at the runtime's default rate, after a collection — what
// `go test -cpuprofile/-memprofile` record. Either path may be empty; both
// files are created up front, so a path that cannot be written fails before
// the experiments run rather than after.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC() // materialize the statistics of everything freed so far
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			return err
		}
		return mem.Close()
	}, nil
}

// huntOptions collects the -hunt-* flags.
func huntOptions() bench.HuntOptions {
	opts := bench.HuntOptions{
		Seeds:   huntSeeds,
		Workers: huntWorkers,
		Plant:   huntPlant,
	}
	for _, p := range strings.Split(huntProfiles, ",") {
		if p = strings.TrimSpace(p); p != "" {
			opts.Profiles = append(opts.Profiles, p)
		}
	}
	return opts
}

// archiveRepros writes every finding's shrunk repro under -repro-dir.
func archiveRepros(res *bench.HuntResult) {
	exitOn(os.MkdirAll(reproDir, 0o755), 1)
	for _, f := range res.Findings {
		path := filepath.Join(reproDir, fmt.Sprintf("hunt-%s-%d.json", f.Profile, f.Seed))
		writeArtifact(path, bench.WriteReport(path, f.Repro))
		fmt.Fprintf(os.Stderr, "icgbench: repro archived: %s\n", path)
	}
}

// runRepro replays an archived hunt repro and reports whether the outcome
// is byte-identical to the archived violation.
func runRepro(path string) {
	data, err := os.ReadFile(path)
	exitOn(err, 2)
	r, err := bench.ParseHuntRepro(data)
	exitOn(err, 2)
	res, err := bench.HuntReplay(r)
	exitOn(err, 2)
	fmt.Printf("replay %s: profile %s seed %d (planted=%v)\n", path, r.Profile, r.Seed, r.Planted)
	fmt.Printf("  archived: %s\n", r.Violation)
	fmt.Printf("  replayed: %s\n", res.Violation)
	if res.Identical {
		fmt.Println("  IDENTICAL: violation and history digest reproduce byte-for-byte")
		return
	}
	fmt.Printf("  archived digest: %s\n  replayed digest: %s\n", r.HistoryDigest, res.HistoryDigest)
	fmt.Fprintln(os.Stderr, "icgbench: replay DIVERGED from the archived repro")
	os.Exit(3)
}

// list prints the experiment registry, the fault-scenario catalog, and the
// random-profile names.
func list() {
	fmt.Println("experiments (-exp):")
	for _, e := range experiments {
		fmt.Printf("  %-10s %s\n", e.name, e.desc)
	}
	fmt.Println("\nfault scenarios (-faults, faultstudy):")
	for _, name := range faults.ScenarioNames() {
		s, err := faults.ScenarioByName(name, time.Second)
		if err != nil {
			continue
		}
		fmt.Printf("  %-20s %s\n", name, s.Description)
	}
	fmt.Println("\nrandom fault profiles (-faults <seed>:<profile>, -hunt-profiles):")
	for _, name := range faults.ProfileNames() {
		fmt.Printf("  %s\n", name)
	}
}

func main() {
	var (
		exp = flag.String("exp", "paper",
			"comma list of experiments to run: "+strings.Join(expNames(anyExp), ", "))
		seed      = flag.Int64("seed", 42, "random seed")
		quick     = flag.Bool("quick", false, "reduced samples/durations (smoke run)")
		faultSpec = flag.String("faults", "",
			"fault scenario for -exp faultstudy: one of "+strings.Join(faults.ScenarioNames(), ", ")+
				", or '<seed>:<profile>' (profiles: "+strings.Join(faults.ProfileNames(), ", ")+
				") for a replayable random schedule; default minority-partition")
		showList   = flag.Bool("list", false, "list experiments, fault scenarios and profiles, then exit")
		repro      = flag.String("repro", "", "replay an archived hunt repro JSON and verify byte-identical reproduction")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this path (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile of the run to this path once the experiments have finished (go tool pprof -sample_index=alloc_objects)")
	)
	flag.StringVar(&faultJSON, "fault-json", "", "write the experiment result as JSON to this path ("+strings.Join(expNames(jsonExp), ", ")+")")
	flag.StringVar(&traceOut, "trace", "", "record model-time spans and sampled gauges, and write them as Chrome trace-event JSON (Perfetto-loadable) to this path ("+strings.Join(expNames(traceExp), ", ")+")")
	flag.IntVar(&huntSeeds, "hunt-seeds", 0, "hunt: seeds swept per profile (default 1000, or 16 with -quick)")
	flag.StringVar(&huntProfiles, "hunt-profiles", "", "hunt: comma list of fault profiles (default "+strings.Join(faults.ProfileNames(), ",")+")")
	flag.IntVar(&huntWorkers, "hunt-workers", 0, "hunt: parallel worlds (default GOMAXPROCS)")
	flag.BoolVar(&huntPlant, "hunt-plant", false, "hunt: enable the planted version-corruption bug (self-test; the hunt must find it)")
	flag.StringVar(&reproDir, "repro-dir", "hunt-repros", "hunt: directory to archive shrunk repro JSONs in on findings")
	flag.Parse()

	if *showList {
		list()
		return
	}
	if *repro != "" {
		runRepro(*repro)
		return
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick, Faults: *faultSpec, Trace: traceOut != ""}

	var names []string
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if _, ok := expByName(name); !ok {
			fmt.Fprintf(os.Stderr, "icgbench: unknown experiment %q (have %s)\n",
				name, strings.Join(expNames(anyExp), ", "))
			os.Exit(2)
		}
		names = append(names, name)
	}
	exitOn(checkArtifacts(names, faultJSON, traceOut), 2)
	// A run that exits early (bad input, a failed consistency check) leaves
	// no usable profile: they describe runs that finished.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	exitOn(err, 1)

	for _, name := range names {
		e, _ := expByName(name)
		start := time.Now()
		out := e.run(cfg)
		fmt.Print(out)
		// Sys is everything the runtime has taken from the OS so far: next to
		// the wall time, the other host cost of a run — and for the hunt the
		// evidence that memory follows the workers, not the worlds swept.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Printf("-- %s completed in %v (wall), %.1f MB from the OS (runtime.MemStats.Sys)\n\n",
			name, time.Since(start).Round(time.Millisecond), float64(ms.Sys)/(1<<20))
	}
	exitOn(stopProfiles(), 1)
}
