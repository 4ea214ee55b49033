package netsim

import (
	"time"

	"correctables/internal/trace"
)

// Exchange is what a RoundTrip carries: the two things that happen at its
// far and near end. The leg that owns the RoundTrip implements it, so
// handing it to Start allocates nothing.
type Exchange interface {
	// Serve runs at the server when the request's service time has passed,
	// and returns the size of the response.
	Serve() int
	// Done runs at the sender when the response has arrived. It is the leg's
	// last step: after it the record may be recycled.
	Done()
}

// RoundTrip is one request/response leg — request travel, service at a
// bounded server, response travel — as a record instead of an actor that
// sleeps three times: a chain of continuations that takes the ready-queue
// slot (Clock.Run) and arms the timers (After, At) its actor would have
// taken, draws the link RNG, the interceptor's verdicts and the server's
// slots in the order Travel and Process do, and waits out a stall where
// Travel's Event.Wait would queue (Event.Then). The events of a run, and
// their order, are those of the actor leg; what goes is the actor — a spawn
// and four token handoffs per leg.
//
// A RoundTrip lives in its leg's record and is reused with it; its one step
// is bound at the first Start, so a warm leg allocates nothing, dropped and
// stalled included. It must not be copied once started.
type RoundTrip struct {
	// Slots is how many server slots the request reserves, one per coalesced
	// operation, the leg waiting for the latest (see Server.Reserve). Zero
	// means one. Start leaves it alone.
	Slots int

	tr       *Transport
	from, to Region // of the message on the wire: swapped for the response
	class    string
	size     int // of the message on the wire
	server   *Server
	cost     time.Duration
	x        Exchange

	state   legState
	sp      trace.SpanID // the open span of the message on the wire
	stalled bool         // see Transport.attempt
	step    func()       // r.advance
}

type legState uint8

const (
	legRequest  legState = iota // the request goes, or goes again, on the wire
	legArrived                  // it reached the server: reserve, wait to be served
	legServed                   // the service time has passed: serve
	legResponse                 // the response goes, or goes again, on the wire
	legReturned                 // it reached the sender: done
)

// Start sends a request of reqSize bytes from from to to, has server charge
// cost for it, and hands the two ends to x. It returns at once; the leg's
// first step runs where an actor spawned now would first run.
func (r *RoundTrip) Start(tr *Transport, from, to Region, class string, reqSize int, server *Server, cost time.Duration, x Exchange) {
	if r.step == nil {
		r.step = r.advance
	}
	r.tr, r.from, r.to, r.class, r.size = tr, from, to, class, reqSize
	r.server, r.cost, r.x = server, cost, x
	r.state = legRequest
	tr.clock.Run(r.step)
}

// advance is the leg's one step: it runs whenever what the leg last waited
// for — its turn, a timer, a fault transition — has come.
func (r *RoundTrip) advance() {
	t := r.tr
	switch r.state {
	case legArrived:
		r.endSpan()
		var latest time.Duration
		for range max(r.Slots, 1) {
			latest = max(latest, r.server.Reserve(r.cost))
		}
		r.state = legServed
		t.clock.At(latest, r.step)
		return
	case legServed:
		r.size = r.x.Serve()
		r.from, r.to = r.to, r.from
		r.state = legResponse
	case legReturned:
		r.endSpan()
		r.x.Done()
		return
	}

	// Put the message on the wire, as Travel does.
	if t.icept == nil && t.trc == nil {
		t.meter.Account(r.class, r.size)
		r.state++
		t.clock.After(t.sample(r.from, r.to), r.step)
		return
	}
	if t.trc != nil && r.sp == 0 {
		r.sp = t.trc.Begin(t.netTrack(r.from, r.to), netCat(r.class), r.class, "", t.clock.Now())
	}
	verdict, wait := t.attempt(r.from, r.to, r.class, r.size, r.sp, &r.stalled)
	switch verdict {
	case VerdictStall:
		t.icept.Changed().Then(r.step)
		return
	case VerdictDeliver:
		r.state++
	}
	t.clock.After(wait, r.step)
}

// endSpan closes the span of the message that just arrived.
func (r *RoundTrip) endSpan() {
	if r.sp != 0 {
		r.tr.trc.End(r.sp, r.tr.clock.Now())
		r.sp = 0
	}
}
