package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// reps is the number of in-process repetitions of a run. Every repetition
// rebuilds the world from the same seed, so the work is identical and
// host-time noise is only additive: the minimum is the estimator for
// times, the median for allocation counts, and the model metrics must come
// out bit-identical every time. The number is fixed, whatever the host's
// speed: a minimum over more draws is biased lower, so runs with different
// numbers of repetitions would not compare like for like.
const reps = 5

// minSetup is the set-up time below which the number would be timer noise;
// the harness refuses to report it.
const minSetup = 200 * time.Millisecond

var workloads = []workload{
	{name: "ads_spec_closed", setup: setupAds},
	{name: "sessions_rw_checked", setup: setupSessions},
	{name: "sharded_open_ramp", setup: setupRamp},
	{name: "zk_queue_failover", setup: setupZK},
	{name: "worlds_faults_parallel", setup: setupSmallWorlds, manyWorlds: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostSample is the host-side cost of one repetition.
type hostSample struct {
	setup, wall, cpu time.Duration
	mallocs, bytes   uint64
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// repetition builds the world and runs its measured phase once, timing
// both, and fails if an output check did: the world's own, or with verify
// also its untimed verifier's.
func repetition(w workload, seed int64, scale float64, traced, verify bool) (hostSample, result, world, error) {
	var h hostSample
	runtime.GC()
	t0 := time.Now()
	wd, err := w.setup(seed, scale, traced)
	if err != nil {
		return h, result{}, nil, fmt.Errorf("setup: %w", err)
	}
	// Collecting the set-up's garbage belongs to getting ready: the
	// measured phase starts from a settled heap every time.
	runtime.GC()
	h.setup = time.Since(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t1 := cpuTime(), time.Now()
	res := wd.measure()
	h.wall, h.cpu = time.Since(t1), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	h.mallocs, h.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if res.detail != "" {
		return h, res, wd, errors.New(res.detail)
	}
	if v, ok := wd.(verifier); ok && verify {
		if detail := v.verify(res); detail != "" {
			return h, res, wd, errors.New(detail)
		}
	}
	return h, res, wd, nil
}

// settle waits for the goroutine count to return to base: a drained world
// leaves no actor behind, and a leaked one would bill its memory and
// scheduling to the next repetition.
func settle(base int) error {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines: %d still running, %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// settleLeaky is settle for worlds whose invocations time out under fault
// injection: the protocol actor of a timed-out invocation can stay parked
// on a message the fault destroyed, for good, so the count cannot return
// to base. It waits until the count stops falling.
func settleLeaky() {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, i = m, 0
		}
	}
}

// modelDiff names the first model metric on which two repetitions of the
// same seed disagree, "" when they are bit-identical.
func modelDiff(a, b model) string {
	switch {
	case a.prelimP50 != b.prelimP50 || a.prelims != b.prelims:
		return "prelim_p50_ms"
	case a.finalP50 != b.finalP50:
		return "final_p50_ms"
	case a.finalP99 != b.finalP99:
		return "final_p99_ms"
	case a.inLimit != b.inLimit || a.span != b.span:
		return "goodput_per_model_s"
	case a.bytes != b.bytes:
		return "bytes_per_op"
	case a.ok != b.ok || a.attempted != b.attempted:
		return "completed_ops_pct"
	}
	return ""
}

func medianOf(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// runEndToEnd is the untraced run: reps repetitions on the same seed. It
// writes one line per repetition to progress.
func runEndToEnd(w workload, seed int64, scale float64, progress io.Writer) (report, error) {
	base := runtime.NumGoroutine()
	var (
		first                          result
		setups, walls, cpus, mal, byts []float64
	)
	for rep := 0; rep < reps; rep++ {
		h, res, _, err := repetition(w, seed, scale, false, rep == 0)
		if err != nil {
			return failure(res), err
		}
		if rep == 0 {
			first = res
		} else if name := modelDiff(first.model, res.model); name != "" {
			return failure(res), fmt.Errorf("%s: repetition %d of seed %d differs from repetition 0", name, rep, seed)
		}
		if w.manyWorlds {
			settleLeaky()
		} else if err := settle(base); err != nil {
			return failure(res), err
		}
		ops := float64(res.model.ok)
		setups = append(setups, h.setup.Seconds())
		walls = append(walls, float64(h.wall.Microseconds())/ops)
		cpus = append(cpus, float64(h.cpu.Microseconds())/ops)
		mal = append(mal, float64(h.mallocs)/ops)
		byts = append(byts, float64(h.bytes)/ops)
		fmt.Fprintf(progress, "rep %d: setup %.3fs measured %.3fs cpu %.3fs ops %d prelim_p50 %v final_p50 %v final_p99 %v in_limit %d\n",
			rep, h.setup.Seconds(), h.wall.Seconds(), h.cpu.Seconds(), res.model.ok,
			res.model.prelimP50, res.model.finalP50, res.model.finalP99, res.model.inLimit)
	}
	setup := medianOf(setups)
	if scale == 1 && setup < minSetup.Seconds() {
		return failure(first), fmt.Errorf("setup_s: %.4f s is below %v, too short to time", setup, minSetup)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return failure(first), fmt.Errorf("peak_rss_mb: %w", err)
	}
	m := first.model
	return report{Correct: true, Attempted: m.attempted, Failed: m.attempted - m.ok, Metrics: map[string]metric{
		"setup_s":             {setup, "s"},
		"host_us_per_op":      {slices.Min(walls), "us"},
		"cpu_us_per_op":       {slices.Min(cpus), "us"},
		"allocs_per_op":       {medianOf(mal), "count"},
		"alloc_bytes_per_op":  {medianOf(byts), "bytes"},
		"peak_rss_mb":         {rss, "MB"},
		"prelim_p50_ms":       {ms(m.prelimP50), "ms"},
		"final_p50_ms":        {ms(m.finalP50), "ms"},
		"final_p99_ms":        {ms(m.finalP99), "ms"},
		"goodput_per_model_s": {m.goodput(), "1/s"},
		"bytes_per_op":        {m.bytesPerOp(), "bytes"},
		"completed_ops_pct":   {m.completedPct(), "%"},
	}}, nil
}

// failure is the report of a run whose outputs were wrong.
func failure(res result) report {
	m := res.model
	return report{Correct: false, Attempted: max(m.attempted, 1), Failed: m.attempted - m.ok, Metrics: map[string]metric{}}
}
