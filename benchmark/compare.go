package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// A set of runs is a text file with one run per line: the workload's name,
// a space, and the JSON object the run printed. For example
//
//	for s in 1 2 3; do echo "zk_queue_failover $(bash benchmark/run.sh \
//	  --workload zk_queue_failover --seed $s --trace 0 | tail -1)"; done > A.runs
//
// readSet returns the values of every metric, by workload then metric.
func readSet(path string) (map[string]map[string][]float64, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close() // read only
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		name, obj, ok := strings.Cut(text, " ")
		if !ok {
			return nil, fmt.Errorf("%s:%d: want \"<workload> <json>\"", path, line)
		}
		var rep report
		if err := json.Unmarshal([]byte(obj), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rep.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s is not correct", path, line, name)
		}
		if set[name] == nil {
			set[name] = map[string][]float64{}
		}
		for metric, m := range rep.Metrics {
			set[name][metric] = append(set[name][metric], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		j = max(1, min(j, len(s)-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// compareSets prints, per workload and end-to-end metric, the medians and
// quartile spreads of two sets of runs and how far the second median lies
// from the first (positive on the worse side), against the bound
// BENCHMARK.json fixes. It returns 1 unless the sets agree everywhere: a
// median that moved by more than the bound in either direction is WORSE
// or BETTER (two sets of the same code must show neither), and a metric
// whose spread is wider than its bound (setup_s aside) is unresolved.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := readSet(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readSet(pathB); err == nil {
			return printComparison(bf, a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 2
}

func printComparison(bf benchmarkFile, a, b map[string]map[string][]float64, out io.Writer) int {
	status := 0
	fmt.Fprintf(out, "%-24s %-20s %12s %8s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "worse", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(out, "%-24s %-20s needs at least two runs in each set\n", wl.Name, m.Name)
				status = 1
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case worse > m.Bound:
				verdict, status = "WORSE", 1
			case worse < -m.Bound:
				verdict, status = "BETTER", 1
			case m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound:
				verdict, status = "unresolved", 1
			}
			fmt.Fprintf(out, "%-24s %-20s %12.4f %7.2f%% %12.4f %7.2f%% %+7.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, a2, 100*spreadA, b2, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	return status
}
