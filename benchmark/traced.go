package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// fabricMark is a fabric's counters at the start of a measured phase.
type fabricMark struct {
	at      time.Duration
	links   map[string]netsim.LinkStats
	dropped map[string]netsim.LinkStats
	bytes   int64 // delivered bytes, all link classes
	spawned uint64
	spans   int
}

func (f *fabric) mark() fabricMark {
	spans, _ := f.trc.Counts()
	return fabricMark{at: f.clock.Now(), links: f.meter.Snapshot(), dropped: f.meter.SnapshotDropped(),
		bytes: f.bytesOnWire(), spawned: f.clock.Spawned(), spans: spans}
}

// fabricSums is what a fabric did during a measured phase. Sums of several
// worlds add up field by field.
type fabricSums struct {
	msgs, clientBytes, replicaBytes, dropped int64
	spawned                                  uint64
	spans                                    int
	totals                                   trace.Totals
	// slotTime is the worker-slot capacity of the phase: slots x elapsed.
	slotTime time.Duration
}

// since reports the fabric's activity from mark to the measured phase's
// end; slots is the world's worker-slot count. Only spans inside the
// window count toward the category totals.
func (f *fabric) since(m fabricMark, end time.Duration, slots int) fabricSums {
	var s fabricSums
	for class, st := range f.meter.Snapshot() {
		s.msgs += st.Messages - m.links[class].Messages
		switch class {
		case netsim.LinkClient:
			s.clientBytes = st.Bytes - m.links[class].Bytes
		case netsim.LinkReplica:
			s.replicaBytes = st.Bytes - m.links[class].Bytes
		}
	}
	for class, st := range f.meter.SnapshotDropped() {
		s.dropped += st.Messages - m.dropped[class].Messages
	}
	s.spawned = f.clock.Spawned() - m.spawned
	spans, _ := f.trc.Counts()
	s.spans = spans - m.spans
	s.totals = f.trc.CategoryTotals(m.at, end)
	s.slotTime = time.Duration(slots) * (end - m.at)
	return s
}

func (s *fabricSums) add(o fabricSums) {
	s.msgs += o.msgs
	s.clientBytes += o.clientBytes
	s.replicaBytes += o.replicaBytes
	s.dropped += o.dropped
	s.spawned += o.spawned
	s.spans += o.spans
	for i := range s.totals {
		s.totals[i] += o.totals[i]
	}
	s.slotTime += o.slotTime
}

// layers renders the sums as per-operation metrics.
func (s fabricSums) layers(ops int64) map[string]float64 {
	n := float64(ops)
	out := map[string]float64{
		"netsim.msgs_per_op":            float64(s.msgs) / n,
		"netsim.client_bytes_per_op":    float64(s.clientBytes) / n,
		"netsim.replica_bytes_per_op":   float64(s.replicaBytes) / n,
		"netsim.dropped_msgs":           float64(s.dropped),
		"netsim.clock.spawned_per_op":   float64(s.spawned) / n,
		"netsim.server.util_pct":        100 * float64(s.totals.Get(trace.CatServer)) / float64(s.slotTime),
		"trace.spans_per_op":            float64(s.spans) / n,
		"netsim.server.queue_ms_per_op": s.totals.Ms(trace.CatQueue) / n,
	}
	for _, c := range trace.Categories() {
		if c == trace.CatQueue {
			continue // reported as netsim.server.queue_ms_per_op
		}
		out["trace."+strings.ReplaceAll(c.String(), ".", "-")+"_ms_per_op"] = s.totals.Ms(c) / n
	}
	return out
}

// runTraced is the per-layer run: one untraced and one traced repetition
// of the workload (their difference is the tracing overhead, and their
// model metrics must agree), the exact model-side counters of the traced
// one, the harness's own spans written to out/<workload>.trace.json, and
// the micro-drivers, each timed for at least microFor. The report holds
// the metrics perLayer names (BENCHMARK.json's per_layer list).
func runTraced(w workload, seed int64, scale float64, perLayer []metricDecl, microFor time.Duration) (report, error) {
	plain, res0, _, err := repetition(w, seed, scale, false, false)
	if err != nil {
		return failure(res0), err
	}
	// The verifier runs on the traced world: its layers report against the
	// baseline the verifier measures.
	traced, res, wd, err := repetition(w, seed, scale, true, true)
	if err != nil {
		return failure(res), err
	}
	if name := modelDiff(res0.model, res.model); name != "" {
		return failure(res), fmt.Errorf("%s: the traced repetition differs from the untraced one", name)
	}

	values := wd.layers(res)
	ops := float64(res.model.ok)
	values["trace.overhead_pct"] = 100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
	values["trace.traced_host_us_per_op"] = float64(traced.wall.Microseconds()) / ops
	if err := writeSpans(w.name, res.ops); err != nil {
		return failure(res), fmt.Errorf("writing spans: %w", err)
	}
	wd = nil
	runtime.GC()
	runtime.GOMAXPROCS(1) // the micro-drivers are single worlds
	for name, v := range runMicros(microFor) {
		values[name] = v
	}

	rep := report{Correct: true, Attempted: res.model.attempted, Failed: res.model.attempted - res.model.ok,
		Metrics: make(map[string]metric, len(perLayer))}
	for _, d := range perLayer {
		rep.Metrics[d.Name] = metric{values[d.Name], d.Unit} // 0 where the workload has no such layer
		delete(values, d.Name)
	}
	for name := range values {
		return failure(res), fmt.Errorf("%s: metric is not in BENCHMARK.json's per_layer list", name)
	}
	return rep, nil
}

// maxSpans bounds the span file: a traced run keeps every operation in
// memory and writes the spans of the first maxSpans/4 operations.
const maxSpans = 40000

// outDir is where the traced run leaves its span files: out/ beside the
// benchmark's sources, whether the command runs from the repository root
// or from the benchmark's directory.
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// writeSpans writes the harness's own model-time spans, derived from the
// operation log: per operation a root span from its due instant to its
// final view, below it the invocation (from the actual start) and below
// that one span per view. Parent refers to a span's id; spans of one
// operation share its op id.
func writeSpans(name string, ops []opRec) (err error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(file)
	fmt.Fprintf(w, "{\"workload\":%q,\"operations\":%d,\"unit\":\"ns of model time\",\"spans\":[", name, len(ops))
	id := 0
	span := func(op int, name string, parent int, start, end time.Duration) int {
		if id > 0 {
			w.WriteByte(',')
		}
		id++
		fmt.Fprintf(w, "\n{\"id\":%d,\"op\":%d,\"name\":%q,\"parent\":%d,\"start\":%d,\"end\":%d}", id, op, name, parent, start, end)
		return id
	}
	for i, op := range ops {
		if id+4 > maxSpans {
			break
		}
		end := op.due + op.final
		root := span(i+1, "op:"+op.kind, 0, op.due, end)
		invoke := span(i+1, "invoke", root, op.start, end)
		if op.hasPrelim {
			span(i+1, "view:preliminary", invoke, op.start, op.due+op.prelim)
		}
		span(i+1, "view:final", invoke, op.start, end)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
