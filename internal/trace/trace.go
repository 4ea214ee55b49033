// Package trace is the repo's deterministic, model-time observability
// plane: a span tracer plus a sampled time-series registry, both stamped
// exclusively with virtual-clock instants so that same-seed runs produce
// byte-identical artifacts.
//
// The tracer is nil-safe throughout — every method on a nil *Tracer is a
// no-op returning zero values — so instrumented hot paths pay a single
// pointer comparison when tracing is off. When tracing is on, spans are
// stored by value in an appending slice (amortized-zero allocation, the
// same freelist-flavored idiom the PR 3 scheduler uses for timers); the
// enabled path is alloc-gated in CI next to the disabled one.
//
// The package imports only the standard library: netsim, binding, the
// store bindings, load, and bench all sit above it in the import graph.
package trace

import (
	"sync"
	"time"
)

// Category classifies a span for latency decomposition. Categories are a
// closed set so that CategoryTotals is a flat array sum, and so report
// columns are stable across experiments.
type Category uint8

const (
	// CatOp is a root client-operation span (invoke to final view/error).
	CatOp Category = iota
	// CatAdmission covers admission-gate activity: token waits, rejects,
	// degrades, and retry backoff windows.
	CatAdmission
	// CatNetClient is time on the wire on client<->coordinator links.
	CatNetClient
	// CatNetReplica is time on the wire on replica<->replica links.
	CatNetReplica
	// CatQueue is server worker-slot queueing (arrival to service start).
	CatQueue
	// CatServer is server service time (slot occupied doing work).
	CatServer
	// CatFlush is the preliminary-response flush: local result serialized
	// and shipped to the client ahead of the quorum.
	CatFlush
	// CatQuorum is coordinator wait for remote acknowledgements (read
	// quorum gathering, write sync legs, zk proposal acks).
	CatQuorum
	// CatRepair is read-repair work (blocking or async).
	CatRepair
	// CatHint is hinted-handoff activity: buffering and replay.
	CatHint
	// CatElection covers leader-election windows and resync transfers.
	CatElection
	// CatRoute is shard routing: a contact node forwarding a request whose
	// key lives on another shard's coordinator (token-ring lookup plus the
	// intra-region hop).
	CatRoute
	// CatBatch is a coalesced dispatch: one coordinator round serving every
	// same-shard operation collected in a batch window.
	CatBatch

	numCategories
)

var catNames = [numCategories]string{
	"op", "admission", "net.client", "net.replica", "queue",
	"server", "flush", "quorum", "repair", "hint", "election",
	"route", "batch",
}

// String returns the category's stable report/export name.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "unknown"
}

// Categories lists every category in declaration order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Track identifies a named timeline (a Perfetto "process"): one per
// client, per server, per link pair. Zero is the nil track.
type Track int32

// SpanID refers to an open span. Zero is the nil span.
type SpanID uint32

// span is one recorded interval. end < 0 marks a still-open span.
type span struct {
	track  Track
	cat    Category
	name   string
	detail string
	start  time.Duration
	end    time.Duration
}

// instant is a point event on a track.
type instant struct {
	track  Track
	name   string
	detail string
	at     time.Duration
}

// Tracer records spans and instants in model time. All methods are safe
// for concurrent use and safe on a nil receiver.
type Tracer struct {
	mu       sync.Mutex
	tracks   []string
	spans    []span
	instants []instant
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Track interns a timeline name and returns its handle. Callers resolve
// tracks once at wiring time so per-event paths touch no maps or string
// building. Repeated names return the same handle.
func (t *Tracer) Track(name string) Track {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.tracks {
		if n == name {
			return Track(i + 1)
		}
	}
	t.tracks = append(t.tracks, name)
	return Track(len(t.tracks))
}

// Begin opens a span at the given model instant and returns its ID.
func (t *Tracer) Begin(tr Track, cat Category, name, detail string, at time.Duration) SpanID {
	if t == nil || tr == 0 {
		return 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{track: tr, cat: cat, name: name, detail: detail, start: at, end: -1})
	id := SpanID(len(t.spans))
	t.mu.Unlock()
	return id
}

// End closes an open span at the given model instant.
func (t *Tracer) End(id SpanID, at time.Duration) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	sp := &t.spans[id-1]
	if sp.end < 0 {
		sp.end = at
	}
	t.mu.Unlock()
}

// Annotate attaches a detail string to an open or closed span, replacing
// any previous detail (last annotation wins: "drop" then "stall" records
// the final verdict the message saw).
func (t *Tracer) Annotate(id SpanID, detail string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].detail = detail
	t.mu.Unlock()
}

// Span records a complete interval in one call. Both instants may lie in
// the model future (the exact-reservation server emits queue/service
// spans from deadlines it already knows).
func (t *Tracer) Span(tr Track, cat Category, name, detail string, start, end time.Duration) {
	if t == nil || tr == 0 {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{track: tr, cat: cat, name: name, detail: detail, start: start, end: end})
	t.mu.Unlock()
}

// Instant records a point event.
func (t *Tracer) Instant(tr Track, name, detail string, at time.Duration) {
	if t == nil || tr == 0 {
		return
	}
	t.mu.Lock()
	t.instants = append(t.instants, instant{track: tr, name: name, detail: detail, at: at})
	t.mu.Unlock()
}

// Counts returns the number of recorded spans and instants.
func (t *Tracer) Counts() (spans, instants int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), len(t.instants)
}

// Totals is model time accumulated per category. Categories overlap by
// construction — a quorum-wait span covers its peers' net and server
// spans — so totals decompose activity, not wall latency: each value is
// the integral of "some span of this category was live" ... actually the
// plain sum of span durations (two concurrent ops both waiting on a
// server count twice, which is the queueing signal we want).
type Totals [numCategories]time.Duration

// Get returns the accumulated duration for a category.
func (tt Totals) Get(c Category) time.Duration {
	if int(c) < len(tt) {
		return tt[c]
	}
	return 0
}

// Ms returns the accumulated duration in milliseconds.
func (tt Totals) Ms(c Category) float64 {
	return float64(tt.Get(c)) / float64(time.Millisecond)
}

// CategoryTotals sums span durations per category, clipped to the model
// window [start, end). Open spans are clipped at the window end. Use one
// call per experiment phase to build latency-decomposition rows.
func (t *Tracer) CategoryTotals(start, end time.Duration) Totals {
	var tt Totals
	if t == nil {
		return tt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		sp := &t.spans[i]
		s, e := sp.start, sp.end
		if e < 0 {
			e = end
		}
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e > s {
			tt[sp.cat] += e - s
		}
	}
	return tt
}
