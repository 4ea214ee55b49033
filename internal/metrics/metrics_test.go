package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", got)
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("P50 = %v", got)
	}
	if got := h.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("P99 = %v", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("P100 = %v", got)
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramRecordAfterSort(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Millisecond)
	_ = h.Percentile(50) // forces sort
	h.Record(1 * time.Millisecond)
	if got := h.Min(); got != time.Millisecond {
		t.Errorf("Min after late record = %v", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d", h.Count())
	}
}

// Property: percentiles are monotone in p, bounded by [Min, Max], and the
// mean lies within [Min, Max].
func TestPropertyHistogramInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, r := range raw {
			h.Record(time.Duration(r) * time.Microsecond)
		}
		prev := time.Duration(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		min, max, mean := h.Min(), h.Max(), h.Mean()
		return min <= mean && mean <= max &&
			h.Percentile(1) >= min && h.Percentile(100) == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRatioAndThroughput(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero total should be 0")
	}
	if got := Ratio(25, 100); got != 0.25 {
		t.Errorf("Ratio = %v", got)
	}
	if Throughput(100, 0) != 0 {
		t.Error("Throughput with zero elapsed should be 0")
	}
	if got := Throughput(100, 2*time.Second); got != 50 {
		t.Errorf("Throughput = %v", got)
	}
	if got := Ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("Ms = %v", got)
	}
}

// TestHistogramPercentileEdgeCases pins the nearest-rank boundaries: an
// empty histogram reports zero for any p, a single sample answers every
// percentile, and tiny/huge p clamp to the first and last rank.
func TestHistogramPercentileEdgeCases(t *testing.T) {
	h := NewHistogram()
	for _, p := range []float64{0.001, 50, 99, 100} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty P%v = %v, want 0", p, got)
		}
	}
	h.Record(7 * time.Millisecond)
	for _, p := range []float64{0.001, 1, 50, 99, 100} {
		if got := h.Percentile(p); got != 7*time.Millisecond {
			t.Errorf("single-sample P%v = %v, want 7ms", p, got)
		}
	}
	if h.Min() != 7*time.Millisecond || h.Max() != 7*time.Millisecond {
		t.Errorf("single-sample Min/Max = %v/%v", h.Min(), h.Max())
	}
}
