package netsim

import (
	"time"

	"correctables/internal/trace"
)

// Hop is one synchronous one-way message as a record instead of an actor in
// Travel: Send puts the message on the wire exactly as Travel does — the same
// meter accounting, link RNG draws, interceptor verdicts, net span and
// stall/drop annotations — and where Travel's actor would sleep out the
// delay, the retransmission timeout or a stall, the hop arms that timer
// (After) or takes that waiter slot (Event.Then) for its owner's step. The
// step then asks Arrived: true once the message is at its destination,
// false when it went on the wire again and the step will run once more.
//
// A Hop lives in its owner's record and is reused with it; the step is the
// owner's, bound once, so a warm hop allocates nothing, dropped and stalled
// included. It must not be copied once sent.
type Hop struct {
	tr       *Transport
	from, to Region
	class    string
	size     int
	sp       trace.SpanID // the open span of the message on the wire
	stalled  bool         // see Transport.attempt
	arrived  bool         // the timer armed last is the delivery's
	step     func()
}

// Send puts a message of size bytes from from to to on the wire, and has
// step run when Travel would return — or, on the slow path, when Travel's
// actor would try again; step calls Arrived to tell which.
func (h *Hop) Send(tr *Transport, from, to Region, class string, size int, step func()) {
	h.tr, h.from, h.to, h.class, h.size, h.step = tr, from, to, class, size, step
	h.put()
}

// Arrived reports whether the message the hop carries has reached its
// destination, closing its span; if not, it goes on the wire again.
func (h *Hop) Arrived() bool {
	if !h.arrived {
		h.put()
		return false
	}
	h.arrived = false
	if h.sp != 0 {
		h.tr.trc.End(h.sp, h.tr.clock.Now())
		h.sp = 0
	}
	return true
}

// put makes one attempt, as one turn of Travel's loop does.
func (h *Hop) put() {
	t := h.tr
	if t.icept == nil && t.trc == nil {
		t.meter.Account(h.class, h.size)
		h.arrived = true
		t.clock.After(t.sample(h.from, h.to), h.step)
		return
	}
	if t.trc != nil && h.sp == 0 {
		h.sp = t.trc.Begin(t.netTrack(h.from, h.to), netCat(h.class), h.class, "", t.clock.Now())
	}
	verdict, wait := t.attempt(h.from, h.to, h.class, h.size, h.sp, &h.stalled)
	switch verdict {
	case VerdictStall:
		t.icept.Changed().Then(h.step)
		return
	case VerdictDeliver:
		h.arrived = true
	}
	t.clock.After(wait, h.step)
}

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
// Travel's Event.Wait would queue (Event.Then). Both directions are a Hop.
// The events of a run, and their order, are those of the actor leg; what
// goes is the actor — a spawn and four token handoffs per leg.
//
// A RoundTrip lives in its leg's record and is reused with it; its one step
// is bound at the first Start, so a warm leg allocates nothing, dropped and
// stalled included. It must not be copied once started.
type RoundTrip struct {
	// Slots is how many server slots the request reserves, one per coalesced
	// operation, the leg waiting for the latest (see Server.Reserve). Zero
	// means one. Start leaves it alone.
	Slots int

	hop    Hop
	server *Server
	cost   time.Duration
	x      Exchange
	state  legState
	step   func() // r.advance
}

type legState uint8

const (
	legStart    legState = iota // the leg's first turn: send the request
	legRequest                  // the request is on the wire
	legServed                   // the service time has passed: serve
	legResponse                 // the response is on the wire
)

// Start sends a request of reqSize bytes from from to to, has server charge
// cost for it, and hands the two ends to x. It returns at once; the leg's
// first step runs where an actor spawned now would first run.
func (r *RoundTrip) Start(tr *Transport, from, to Region, class string, reqSize int, server *Server, cost time.Duration, x Exchange) {
	if r.step == nil {
		r.step = r.advance
	}
	h := &r.hop
	h.tr, h.from, h.to, h.class, h.size, h.step = tr, from, to, class, reqSize, r.step
	r.server, r.cost, r.x = server, cost, x
	r.state = legStart
	tr.clock.Run(r.step)
}

// advance is the leg's one step: it runs whenever what the leg last waited
// for — its turn, a timer, a fault transition — has come.
func (r *RoundTrip) advance() {
	h := &r.hop
	switch r.state {
	case legStart:
		r.state = legRequest
		h.put()
	case legRequest:
		if !h.Arrived() {
			return
		}
		var latest time.Duration
		for range max(r.Slots, 1) {
			latest = max(latest, r.server.Reserve(r.cost))
		}
		r.state = legServed
		h.tr.clock.At(latest, r.step)
	case legServed:
		r.state = legResponse
		h.Send(h.tr, h.to, h.from, h.class, r.x.Serve(), r.step)
	case legResponse:
		if h.Arrived() {
			r.x.Done()
		}
	}
}
