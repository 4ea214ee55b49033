package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testScale shrinks every world's model durations: the whole file runs in
// a few seconds.
const testScale = 0.1

func measureOnce(t *testing.T, w workload, seed int64, traced bool) result {
	t.Helper()
	_, res, _, err := repetition(w, seed, testScale, traced, false)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// The same seed must give bit-identical model metrics, a different seed
// different ones, and tracing must not perturb them.
func TestModelMetricsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := measureOnce(t, w, 42, false)
		b := measureOnce(t, w, 42, false)
		if name := modelDiff(a.model, b.model); name != "" {
			t.Errorf("%s: seed 42 twice differs on %s: %+v vs %+v", w.name, name, a.model, b.model)
		}
		traced := measureOnce(t, w, 42, true)
		if name := modelDiff(a.model, traced.model); name != "" {
			t.Errorf("%s: tracing changed %s: %+v vs %+v", w.name, name, a.model, traced.model)
		}
		c := measureOnce(t, w, 1042, false)
		if a.model == c.model {
			t.Errorf("%s: seeds 42 and 1042 give the same model metrics %+v", w.name, a.model)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func benchmarkFileOf(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json names the harness's workloads in order, and its metric
// names, whys and bounds are inside the contract's limits.
func TestBenchmarkFile(t *testing.T) {
	bf := benchmarkFileOf(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	for _, d := range append(bf.EndToEnd, bf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric declaration %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s has bound %v, must be in (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(bf.PerLayer))
	}
}

// An untraced run reports every end-to-end metric, with its unit, and none
// of them is 0.
func TestEndToEndReport(t *testing.T) {
	endToEnd := benchmarkFileOf(t).EndToEnd
	for _, w := range workloads {
		rep, err := runEndToEnd(w, 42, testScale, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(rep.Metrics), len(endToEnd))
		}
		for _, s := range endToEnd {
			m, ok := rep.Metrics[s.Name]
			if !ok || m.Unit != s.Unit || m.Value <= 0 {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.name, s.Name, m, ok, s.Unit)
			}
		}
	}
}

// The traced repetition's counters all belong to the declared per-layer
// list, and the operation log yields a span file.
func TestTracedCounters(t *testing.T) {
	declared := map[string]bool{}
	for _, s := range benchmarkFileOf(t).PerLayer {
		declared[s.Name] = true
	}
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		_, res, wd, err := repetition(w, 42, testScale, true, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		values := wd.layers(res)
		for name := range values {
			if !declared[name] {
				t.Errorf("%s: counter %s is not in the per-layer list", w.name, name)
			}
		}
		if values["trace.spans_per_op"] <= 0 || values["netsim.msgs_per_op"] <= 0 {
			t.Errorf("%s: the traced repetition recorded nothing: %v", w.name, values)
		}
		if err := writeSpans(w.name, res.ops); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile("out/" + w.name + ".trace.json")
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []struct {
				ID, Op, Parent int
				Name           string
				Start, End     int64
			}
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: span file: %v", w.name, err)
		}
		if len(file.Spans) == 0 || len(file.Spans) > maxSpans {
			t.Errorf("%s: %d spans in the file", w.name, len(file.Spans))
		}
		for _, sp := range file.Spans {
			if sp.End < sp.Start || sp.Parent >= sp.ID {
				t.Fatalf("%s: malformed span %+v", w.name, sp)
			}
		}
	}
}

// Every micro-driver runs (on a timing target a hundredth of a run's) and,
// together with the traced counters, the declared per-layer list is
// covered exactly.
func TestMicroDriversCoverThePerLayerList(t *testing.T) {
	perLayer := benchmarkFileOf(t).PerLayer
	t.Chdir(t.TempDir())
	rep, err := runTraced(workloads[3], 42, testScale, perLayer, microTarget/100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range perLayer {
		if m, ok := rep.Metrics[s.Name]; !ok || m.Unit != s.Unit {
			t.Errorf("%s missing or in the wrong unit: %+v", s.Name, m)
		}
	}
	for _, m := range micros {
		if m.name != "faults.travel_idle_injector_ns" && rep.Metrics[m.name].Value <= 0 {
			t.Errorf("driver %s produced no positive metric", m.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareFlagsRegressionAndNoise(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []metricDecl{
		{Name: "host_us_per_op", Unit: "us", Better: "lower", Bound: 0.1},
		{Name: "goodput_per_model_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(host, good []float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {"host_us_per_op": host, "goodput_per_model_s": good}}
	}
	steady := []float64{100, 101, 102, 100, 101}
	var out bytes.Buffer
	if got := printComparison(bf, set(steady, steady), set(steady, steady), &out); got != 0 {
		t.Errorf("identical sets: exit %d\n%s", got, out.String())
	}
	slower := []float64{120, 121, 122, 120, 121}
	if got := printComparison(bf, set(steady, steady), set(slower, steady), &out); got != 1 {
		t.Errorf("20%% slower host time: exit %d", got)
	}
	if got := printComparison(bf, set(steady, slower), set(steady, steady), &out); got != 1 {
		t.Errorf("17%% lower goodput: exit %d", got)
	}
	if got := printComparison(bf, set(slower, steady), set(steady, steady), &out); got != 1 || !strings.Contains(out.String(), "BETTER") {
		t.Errorf("17%% less host time is a disagreement too: exit %d\n%s", got, out.String())
	}
	noisy := []float64{80, 100, 120, 90, 110}
	if got := printComparison(bf, set(noisy, steady), set(noisy, steady), &out); got != 1 {
		t.Errorf("spread beyond the bound must be unresolved: exit %d", got)
	}
}
