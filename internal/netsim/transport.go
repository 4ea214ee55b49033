package netsim

import (
	"hash/fnv"
	"math"
	randv2 "math/rand/v2"
	"sync"
	"time"

	"correctables/internal/trace"
)

// Verdict is an Interceptor's decision for one message.
type Verdict uint8

const (
	// VerdictDeliver lets the message through; its one-way delay is scaled
	// by the factor the interceptor returns alongside (latency spikes).
	VerdictDeliver Verdict = iota
	// VerdictDrop loses the message on an otherwise live link (lossy-link
	// packet loss). Asynchronous sends are silently discarded; synchronous
	// Travel models a retransmit: the sender waits a retransmission timeout
	// and tries again.
	VerdictDrop
	// VerdictStall marks the link impassable (network partition, crashed
	// endpoint). A synchronous sender — Travel's actor, a Hop — waits
	// for the interceptor's next transition and asks again, until the link
	// heals; asynchronous sends are discarded — in-flight fire-and-forget
	// traffic is exactly the state a crash loses.
	VerdictStall
)

// Interceptor is one judge and one signal: it decides the fate of every
// message the transport carries per the current fault epoch, and says when
// that epoch ends. The canonical implementation is faults.Injector; a nil
// interceptor (the default) leaves the hot path untouched. Both methods are
// called from actor and from callback context and must never block: who
// waits, and how — an actor in Event.Wait, a continuation in Event.Then — is
// the sender's business.
type Interceptor interface {
	// Intercept returns the fate of one message plus a delay multiplier
	// (meaningful for VerdictDeliver; 1.0 = unperturbed). An impassable link
	// is VerdictStall before anything is sampled, so a stalled sender that
	// asks again at every transition draws nothing until the link heals.
	Intercept(from, to Region, class string) (Verdict, float64)
	// Changed returns the event the next fault transition fires. A sender
	// handed VerdictStall waits on it and calls Intercept again.
	Changed() *Event
}

// Transport carries messages between regions, charging one-way latency
// (with jitter and an exponential tail) and accounting bytes on the meter.
// It is the only path through which simulated components may exchange data,
// which is what makes the bandwidth figures (Fig 8, Fig 10) trustworthy.
//
// Jitter is drawn from per-region-pair PCG generators rather than one
// global source, so the draw sequence of each link is independent of
// traffic on other links.
type Transport struct {
	clock Clock
	model *LatencyModel
	meter *Meter
	icept Interceptor

	shards map[[2]Region]*rngShard
	// local is the fallback jitter source for same-region links of regions
	// absent from the model's RTT map (single-region custom models).
	local *rngShard

	// JitterFrac is the +/- uniform jitter fraction applied to every one-way
	// delay (default 0.04).
	JitterFrac float64
	// TailMeanFrac is the mean of the additive exponential tail, as a
	// fraction of the base one-way delay (default 0.03). This produces the
	// heavier 99th-percentile latencies visible in the paper's Figures 5
	// and 9 without changing averages much.
	TailMeanFrac float64

	// trc, when set, records one span per message on a per-link track,
	// annotated with the fault verdicts the message saw. Nil (the default)
	// costs the hot path one pointer comparison.
	trc       *trace.Tracer
	trackMu   sync.Mutex
	netTracks map[[2]Region]trace.Track
}

// rngShard is one link's jitter source.
type rngShard struct {
	mu  sync.Mutex
	rng *randv2.Rand
}

// NewTransport creates a transport over the given clock, latency model and
// meter. The meter may be nil (no accounting). Seed fixes the jitter RNGs
// for reproducible runs.
func NewTransport(clock Clock, model *LatencyModel, meter *Meter, seed int64) *Transport {
	t := &Transport{
		clock:        clock,
		model:        model,
		meter:        meter,
		shards:       make(map[[2]Region]*rngShard),
		JitterFrac:   0.04,
		TailMeanFrac: 0.03,
	}
	// One generator per link (including each region's local link), seeded
	// from the run seed and a stable hash of the pair so the sequence on a
	// given link is the same whatever other links exist. Regions are taken
	// from the RTT map itself, not a canonical list, so custom geographies
	// get jittered local links too.
	addShard := func(key [2]Region) {
		if _, ok := t.shards[key]; ok {
			return
		}
		h := fnv.New64a()
		h.Write([]byte(key[0]))
		h.Write([]byte{0})
		h.Write([]byte(key[1]))
		t.shards[key] = &rngShard{rng: randv2.New(randv2.NewPCG(uint64(seed), h.Sum64()))}
	}
	for key := range model.RTTs {
		addShard(key)
		addShard(pairKey(key[0], key[0]))
		addShard(pairKey(key[1], key[1]))
	}
	t.local = &rngShard{rng: randv2.New(randv2.NewPCG(uint64(seed), 0x10ca1))}
	return t
}

// Clock returns the transport's clock.
func (t *Transport) Clock() Clock { return t.clock }

// Model returns the transport's latency model.
func (t *Transport) Model() *LatencyModel { return t.model }

// Meter returns the transport's meter (may be nil).
func (t *Transport) Meter() *Meter { return t.meter }

// SetInterceptor installs (or, with nil, removes) the fault interceptor.
// Install it before traffic starts — typically right after NewTransport and
// before any store is constructed on the transport, since stores inspect
// Interceptor() at construction time to wire their crash-recovery hooks.
func (t *Transport) SetInterceptor(i Interceptor) { t.icept = i }

// Interceptor returns the installed fault interceptor (nil when none).
func (t *Transport) Interceptor() Interceptor { return t.icept }

// SetTrace installs (or, with nil, removes) a span tracer. Install it at
// wiring time, before traffic starts.
func (t *Transport) SetTrace(trc *trace.Tracer) {
	t.trc = trc
	t.netTracks = make(map[[2]Region]trace.Track)
}

// netTrack returns the (lazily interned) trace track for one directed
// link.
func (t *Transport) netTrack(from, to Region) trace.Track {
	key := [2]Region{from, to}
	t.trackMu.Lock()
	tk, ok := t.netTracks[key]
	if !ok {
		tk = t.trc.Track("net/" + string(from) + "→" + string(to))
		t.netTracks[key] = tk
	}
	t.trackMu.Unlock()
	return tk
}

// netCat maps a link class to its decomposition category.
func netCat(class string) trace.Category {
	if class == LinkClient {
		return trace.CatNetClient
	}
	return trace.CatNetReplica
}

// sample returns a jittered one-way delay between two regions.
func (t *Transport) sample(from, to Region) time.Duration {
	base := float64(t.model.OneWay(from, to))
	s, ok := t.shards[pairKey(from, to)]
	if !ok {
		// Same-region link of a region with no RTT entries (OneWay panics
		// for unmodelled cross-region pairs before reaching here): jitter
		// from the shared local fallback shard.
		s = t.local
	}
	s.mu.Lock()
	u := s.rng.Float64()*2 - 1 // [-1, 1)
	e := s.rng.ExpFloat64()
	s.mu.Unlock()
	d := base * (1 + t.JitterFrac*u)
	d += base * t.TailMeanFrac * e
	return time.Duration(math.Max(d, 0))
}

// scaled multiplies a delay by an interceptor factor.
func scaled(d time.Duration, factor float64) time.Duration {
	if factor == 1 {
		return d
	}
	return time.Duration(float64(d) * factor)
}

// Travel synchronously delivers a message: it accounts size bytes on the
// link class and sleeps the one-way delay in model time. Callers run
// protocol logic as straight-line code in their own actor and call Travel
// at each hop; a protocol written as a record sends each hop with a Hop,
// its continuation twin.
//
// Under an interceptor, a dropped message costs the sender a retransmission
// timeout (~one RTT) before retrying, with the lost bytes accounted on the
// meter's dropped counters; a stalled message parks the actor until the
// link is passable again, modeling an idealized retransmit that succeeds
// as soon as the partition heals or the endpoint restarts.
func (t *Transport) Travel(from, to Region, class string, size int) {
	if t.icept == nil && t.trc == nil {
		t.meter.Account(class, size)
		t.clock.Sleep(t.sample(from, to))
		return
	}
	var sp trace.SpanID
	if t.trc != nil {
		sp = t.trc.Begin(t.netTrack(from, to), netCat(class), class, "", t.clock.Now())
	}
	stalled := false
	for {
		verdict, wait := t.attempt(from, to, class, size, sp, &stalled)
		if verdict == VerdictStall {
			t.icept.Changed().Wait()
			continue
		}
		t.clock.Sleep(wait)
		if verdict == VerdictDeliver {
			t.trc.End(sp, t.clock.Now())
			return
		}
	}
}

// attempt puts a synchronous message on the wire once, on the slow path
// (interceptor or tracer attached): it takes the verdict, accounts the bytes
// as delivered or dropped, annotates the message's span, and returns how
// long the sender now waits — the scaled one-way delay of a delivery, the
// retransmission timeout after a drop. After a stall it waits for the
// interceptor's next transition instead; stalled carries across attempts so
// that one episode, however many transitions it spans, annotates once.
func (t *Transport) attempt(from, to Region, class string, size int, sp trace.SpanID, stalled *bool) (Verdict, time.Duration) {
	verdict, factor := VerdictDeliver, 1.0
	if t.icept != nil {
		verdict, factor = t.icept.Intercept(from, to, class)
	}
	if verdict == VerdictStall {
		if !*stalled {
			*stalled = true
			t.trc.Annotate(sp, "stall")
		}
		return verdict, 0
	}
	*stalled = false
	if verdict == VerdictDrop {
		t.trc.Annotate(sp, "drop")
		t.meter.AccountDropped(class, size)
		return verdict, 2 * t.sample(from, to)
	}
	t.meter.Account(class, size)
	return verdict, scaled(t.sample(from, to), factor)
}

// Send asynchronously delivers a message: fn runs as a callback timer
// after the one-way delay — no goroutine is spawned per message. Used for
// off-critical-path traffic such as asynchronous replication and commit
// notifications. fn must not block (see the Clock comment); delivery work
// that needs to block (e.g. charging receiver service time through a
// bounded Server) should spawn an actor from within fn with Clock.Go.
//
// Fire-and-forget traffic has no retransmit path: under an interceptor, a
// dropped or severed message is lost outright (accounted on the dropped
// counters) and fn never runs — which is exactly the in-flight state a
// crashed or partitioned replica loses. Send reports whether the message
// left: a sender that will later wait for something fn does must not wait
// when it is false. That is the "preliminary, then the final, in order"
// idiom of a server-side incremental read (§5.2): the preliminary goes out
// by Send with a callback that delivers the view and then fires an event,
// and once the final response has reached the client it waits for that
// event (Event.Then) — jitter may let the final overtake the preliminary on
// the wire — but only if the preliminary left: one a fault destroyed will
// never fire the event, and costs the operation exactly its preliminary
// view, never its final one.
func (t *Transport) Send(from, to Region, class string, size int, fn func()) bool {
	return t.send(0, from, to, class, size, fn)
}

// SendAfter is Send with an additional model-time delay before the message
// leaves (e.g. replication batching delay). The interceptor verdict is
// taken at send time, not delivery time.
func (t *Transport) SendAfter(extra time.Duration, from, to Region, class string, size int, fn func()) bool {
	return t.send(extra, from, to, class, size, fn)
}

func (t *Transport) send(extra time.Duration, from, to Region, class string, size int, fn func()) bool {
	factor := 1.0
	if t.icept != nil {
		verdict, f := t.icept.Intercept(from, to, class)
		if verdict != VerdictDeliver {
			t.meter.AccountDropped(class, size)
			if t.trc != nil {
				now := t.clock.Now()
				t.trc.Span(t.netTrack(from, to), netCat(class), class, "lost", now, now)
			}
			return false
		}
		factor = f
	}
	t.meter.Account(class, size)
	delay := scaled(t.sample(from, to), factor) + extra
	if t.trc != nil {
		now := t.clock.Now()
		t.trc.Span(t.netTrack(from, to), netCat(class), class, "", now, now+delay)
	}
	t.clock.RunAfter(delay, fn)
	return true
}
