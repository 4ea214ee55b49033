package trace

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"
)

// fakeClock is a minimal deterministic scheduler for registry tests.
type fakeClock struct {
	now time.Duration
	q   []fakeTimer
}

type fakeTimer struct {
	at time.Duration
	fn func()
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) RunAfter(d time.Duration, fn func()) {
	c.q = append(c.q, fakeTimer{at: c.now + d, fn: fn})
}

func (c *fakeClock) drain() {
	for len(c.q) > 0 {
		sort.SliceStable(c.q, func(i, j int) bool { return c.q[i].at < c.q[j].at })
		t := c.q[0]
		c.q = c.q[1:]
		c.now = t.at
		t.fn()
	}
}

func record(t *Tracer) {
	cl := t.Track("client/s-00")
	srv := t.Track("server/par")
	id := t.Begin(cl, CatOp, "get", "", 0)
	t.Span(srv, CatQueue, "wait", "", 1*time.Millisecond, 2*time.Millisecond)
	t.Span(srv, CatServer, "serve", "", 2*time.Millisecond, 4*time.Millisecond)
	// Overlapping span on the same track exercises lane layout.
	t.Span(srv, CatServer, "serve", "", 3*time.Millisecond, 5*time.Millisecond)
	t.Instant(cl, "prelim", "", 3*time.Millisecond)
	t.Annotate(id, "k9")
	t.End(id, 6*time.Millisecond)
}

func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	ta, tb := New(), New()
	record(ta)
	record(tb)
	if err := ta.WriteChrome(&a, nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteChrome(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same events produced different bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		`"process_name"`, `"client/s-00"`, `"server/par"`,
		`"ph":"X"`, `"ph":"i"`, `"cat":"queue"`, `"cat":"server"`,
		`"detail":"k9"`, `"tid":2`, // the overlapping span landed on lane 2
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome output missing %s:\n%s", want, out)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("x")
	if tk != 0 {
		t.Fatalf("nil tracer track = %d, want 0", tk)
	}
	id := tr.Begin(tk, CatOp, "get", "", 0)
	tr.Annotate(id, "d")
	tr.End(id, time.Second)
	tr.Span(tk, CatServer, "s", "", 0, time.Second)
	tr.Instant(tk, "i", "", 0)
	if got := tr.CategoryTotals(0, time.Second); got != (Totals{}) {
		t.Fatalf("nil tracer totals = %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var reg *Registry
	reg.Gauge("g", func() float64 { return 1 })
	reg.Sample(0)
	reg.Start(&fakeClock{}, time.Second, time.Minute)
	if reg.Series() != nil {
		t.Fatal("nil registry has series")
	}
}

func TestCategoryTotalsClipsToWindow(t *testing.T) {
	tr := New()
	tk := tr.Track("t")
	tr.Span(tk, CatServer, "s", "", 0, 10*time.Millisecond)
	tr.Span(tk, CatQueue, "q", "", 8*time.Millisecond, 12*time.Millisecond)
	open := tr.Begin(tk, CatQuorum, "qu", "", 9*time.Millisecond)
	_ = open // left open: clipped at window end

	tt := tr.CategoryTotals(5*time.Millisecond, 10*time.Millisecond)
	if got := tt.Get(CatServer); got != 5*time.Millisecond {
		t.Errorf("server total = %v, want 5ms", got)
	}
	if got := tt.Get(CatQueue); got != 2*time.Millisecond {
		t.Errorf("queue total = %v, want 2ms", got)
	}
	if got := tt.Get(CatQuorum); got != 1*time.Millisecond {
		t.Errorf("open quorum total = %v, want 1ms", got)
	}
	if got := tt.Get(CatOp); got != 0 {
		t.Errorf("op total = %v, want 0", got)
	}
}

func TestRegistrySamplingBoundedByHorizon(t *testing.T) {
	clock := &fakeClock{}
	reg := NewRegistry()
	n := 0.0
	reg.Gauge("ticks", func() float64 { n++; return n })
	reg.Start(clock, 10*time.Millisecond, 100*time.Millisecond)
	clock.drain() // must terminate: the probe stops at the horizon

	series := reg.Series()
	if len(series) != 1 {
		t.Fatalf("series = %d, want 1", len(series))
	}
	pts := series[0].Points
	if len(pts) != 10 {
		t.Fatalf("points = %d, want 10 (10ms..100ms)", len(pts))
	}
	if pts[0].TMs != 10 || pts[9].TMs != 100 {
		t.Errorf("sample instants = %v..%v, want 10..100", pts[0].TMs, pts[9].TMs)
	}
	if pts[9].V != 10 {
		t.Errorf("last gauge value = %v, want 10", pts[9].V)
	}
}

func TestCountersInChromeOutput(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("depth", func() float64 { return 3.5 })
	reg.Sample(2 * time.Millisecond)
	var buf bytes.Buffer
	if err := New().WriteChrome(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"C"`, `"depth"`, `"v":3.5`, `"metrics"`} {
		if !strings.Contains(out, want) {
			t.Errorf("counter output missing %s:\n%s", want, out)
		}
	}
}

func TestTrackInterning(t *testing.T) {
	tr := New()
	a := tr.Track("x")
	b := tr.Track("y")
	if a2 := tr.Track("x"); a2 != a {
		t.Errorf("re-interned track = %d, want %d", a2, a)
	}
	if a == b {
		t.Error("distinct names share a track")
	}
}
