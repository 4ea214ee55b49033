// Package metrics provides the measurement primitives the benchmark harness
// uses: latency histograms (average and percentiles, as reported in the
// paper's figures), ratios, and throughput accounting.
package metrics

import (
	"math"
	"slices"
	"sync"
	"time"
)

// Histogram collects duration samples and reports summary statistics. It is
// safe for concurrent use. Samples are retained exactly (the experiments in
// this repository record at most a few hundred thousand points), so
// percentiles are exact rather than approximated.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.sorted = false
	h.mu.Unlock()
}

// Reserve grows the sample buffer so the histogram can hold at least n
// total samples without reallocating. A size hint for long runs: the YCSB
// runner reserves the merged sample count before folding in per-thread
// shards, so wide-client runs do one allocation per histogram instead of
// O(log n) doubling copies.
func (h *Histogram) Reserve(n int) {
	h.mu.Lock()
	if cap(h.samples) < n {
		s := make([]time.Duration, len(h.samples), n)
		copy(s, h.samples)
		h.samples = s
	}
	h.mu.Unlock()
}

// RecordBatch adds a batch of samples under one lock acquisition.
func (h *Histogram) RecordBatch(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, ds...)
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var total float64
	for _, s := range h.samples {
		total += float64(s)
	}
	return time.Duration(total / float64(len(h.samples)))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or 0 with no samples.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	h.sortLocked()
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return h.samples[rank-1]
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[len(h.samples)-1]
}

// sortLocked sorts samples in place; callers hold h.mu.
func (h *Histogram) sortLocked() {
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
}

// Ms converts a duration to float milliseconds (figure axes).
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Ratio returns c/total as a fraction, or 0 when total is zero.
func Ratio(c, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// Throughput returns operations per second of model time.
func Throughput(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}
