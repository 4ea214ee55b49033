package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"correctables/internal/trace"
)

// actorLeg is the leg RoundTrip replaced, kept as its reference: an actor
// that travels, is served, travels back and reports, in straight-line code.
func actorLeg(tr *Transport, from, to Region, class string, reqSize int, server *Server, cost time.Duration, x Exchange) {
	tr.clock.Go(func() {
		tr.Travel(from, to, class, reqSize)
		server.Process(cost)
		respSize := x.Serve()
		tr.Travel(to, from, class, respSize)
		x.Done()
	})
}

// scriptedFaults is an Interceptor driven by a script of transitions: links
// go down and come back, get slower, lose their next few messages. Like
// faults.Injector it stalls an impassable link before it decides anything
// else, and fires and replaces one event per transition.
type scriptedFaults struct {
	clock Clock
	down  map[[2]Region]bool
	spike map[[2]Region]float64
	lose  map[[2]Region]int // messages the link still drops
	epoch *Event
}

func (s *scriptedFaults) Intercept(from, to Region, class string) (Verdict, float64) {
	link := pairKey(from, to)
	if s.down[link] {
		return VerdictStall, 1
	}
	factor := 1.0
	if f, ok := s.spike[link]; ok {
		factor = f
	}
	if s.lose[link] > 0 {
		s.lose[link]--
		return VerdictDrop, factor
	}
	return VerdictDeliver, factor
}

func (s *scriptedFaults) Changed() *Event { return s.epoch }

// at schedules one transition.
func (s *scriptedFaults) at(t time.Duration, mutate func()) {
	s.clock.RunAt(t, func() {
		mutate()
		old := s.epoch
		s.epoch = s.clock.NewEvent()
		old.Fire()
	})
}

// sceneLeg is one leg of a scene and its own Exchange.
type sceneLeg struct {
	sc       *scene
	id       int
	start    time.Duration
	from, to Region
	class    string
	req      int
	resp     int
	cost     time.Duration
	joined   *Queue
	trip     RoundTrip
}

func (l *sceneLeg) Serve() int {
	l.sc.logf("serve %d", l.id)
	return l.resp
}

func (l *sceneLeg) Done() {
	l.sc.logf("done %d", l.id)
	l.joined.Put(l.id)
}

// scene is one randomized world: a jittered three-region transport, one
// two-slot server every leg contends for, a fault script, and a dozen legs,
// each started by a driver actor that then waits for it like a coordinator.
type scene struct {
	clock  Clock
	meter  *Meter
	tr     *Transport
	server *Server
	trc    *trace.Tracer
	log    []string
}

func (sc *scene) logf(format string, args ...any) {
	sc.log = append(sc.log, fmt.Sprintf("%v ", sc.clock.Now())+fmt.Sprintf(format, args...))
}

// sceneResult is everything the two kinds of leg must agree on.
type sceneResult struct {
	log               []string
	end               time.Duration
	traffic, dropped  map[string]LinkStats
	handled           int64
	busy              time.Duration
	spans             string // the Chrome export: every span with its annotation
	nSpans, nInstants int
	parked            int
}

// runScene plays the scene of one seed with one kind of leg. faulted attaches
// the scripted interceptor, traced a tracer; with neither the legs take the
// transport's fast path.
func runScene(seed int64, faulted, traced bool, start func(l *sceneLeg)) sceneResult {
	rng := rand.New(rand.NewSource(seed))
	clock := NewVirtualClock()
	sc := &scene{clock: clock, meter: NewMeter()}
	sc.tr = NewTransport(clock, DefaultLatencies(), sc.meter, seed)
	sc.server = NewServer(clock, 2)
	if traced {
		sc.trc = trace.New()
		sc.tr.SetTrace(sc.trc)
		sc.server.SetTrace(sc.trc, "server")
	}
	regions := []Region{FRK, IRL, VRG}
	classes := []string{LinkClient, LinkReplica}
	ms := time.Millisecond

	// The legs. Starts fall on a 10 ms grid so that several begin at one
	// instant; the scripted ones come first.
	legs := []*sceneLeg{
		// Two legs stalled on one link from the same instant: FIFO wake.
		{start: 10 * ms, from: FRK, to: IRL, class: LinkReplica, req: 100, resp: 200, cost: 2 * ms},
		{start: 10 * ms, from: FRK, to: IRL, class: LinkReplica, req: 101, resp: 201, cost: 2 * ms},
		// A drop, and a stall when the retransmission comes round.
		{start: 0, from: FRK, to: VRG, class: LinkClient, req: 102, resp: 202, cost: ms},
		// The response hop stalls: the link goes down while the leg is out.
		{start: 0, from: IRL, to: VRG, class: LinkReplica, req: 103, resp: 203, cost: 0},
		// Nothing to wait for (a zero-delay link under the fault script, no
		// service time): the whole leg runs within its first turn, ahead of
		// the neighbour that starts at the same instant.
		{start: 20 * ms, from: IRL, to: IRL, class: LinkClient, req: 104, resp: 204, cost: 0},
		{start: 20 * ms, from: IRL, to: IRL, class: LinkClient, req: 105, resp: 205, cost: ms},
	}
	for n := 6 + rng.Intn(6); n > 0; n-- {
		legs = append(legs, &sceneLeg{
			start: time.Duration(rng.Intn(5)) * 10 * ms,
			from:  regions[rng.Intn(3)], to: regions[rng.Intn(3)],
			class: classes[rng.Intn(2)],
			req:   64 + rng.Intn(64), resp: 64 + rng.Intn(512),
			cost: time.Duration(rng.Intn(4)) * ms, // 0 is served on the spot
		})
	}

	if faulted {
		f := &scriptedFaults{clock: clock, epoch: clock.NewEvent(),
			down: map[[2]Region]bool{}, spike: map[[2]Region]float64{}, lose: map[[2]Region]int{}}
		sc.tr.SetInterceptor(f)
		frkIrl, frkVrg, irlVrg := pairKey(FRK, IRL), pairKey(FRK, VRG), pairKey(IRL, VRG)
		f.lose[frkVrg] = 1
		f.spike[pairKey(IRL, IRL)] = 0
		f.at(1*ms, func() { f.down[frkVrg] = true })
		f.at(5*ms, func() { f.down[frkIrl] = true })
		f.at(20*ms, func() { f.down[irlVrg] = true })
		f.at(30*ms, func() { f.spike[irlVrg] = 3 }) // a transition that heals nothing
		f.at(60*ms, func() { f.down[frkIrl] = false })
		f.at(160*ms, func() { f.down[irlVrg] = false })
		f.at(250*ms, func() { f.down[frkVrg] = false })
		for n := 3 + rng.Intn(4); n > 0; n-- {
			link := pairKey(regions[rng.Intn(3)], regions[rng.Intn(3)])
			t := time.Duration(rng.Intn(150)) * ms
			switch rng.Intn(3) {
			case 0:
				f.at(t, func() { f.down[link] = true })
				f.at(t+time.Duration(1+rng.Intn(80))*ms, func() { f.down[link] = false })
			case 1:
				factor := []float64{0, 0.5, 2, 5}[rng.Intn(4)]
				f.at(t, func() { f.spike[link] = factor })
			case 2:
				n := 1 + rng.Intn(3)
				f.at(t, func() { f.lose[link] += n })
			}
		}
		f.at(400*ms, func() { clear(f.down) }) // every leg gets home
	}

	for i, l := range legs {
		l.sc, l.id, l.joined = sc, i, clock.NewQueue()
		clock.Go(func() {
			clock.SleepUntil(l.start)
			sc.logf("start %d", l.id)
			start(l)
			l.joined.Get()
			sc.logf("joined %d", l.id)
		})
	}
	clock.Drain()

	res := sceneResult{
		log: sc.log, end: clock.Now(),
		traffic: sc.meter.Snapshot(), dropped: sc.meter.SnapshotDropped(),
		handled: sc.server.Handled(), busy: sc.server.BusyModelTime(),
		parked: clock.Parked(),
	}
	if traced {
		var buf bytes.Buffer
		if err := sc.trc.WriteChrome(&buf, nil); err != nil {
			panic(err)
		}
		res.spans = buf.String()
		res.nSpans, res.nInstants = sc.trc.Counts()
	}
	return res
}

// TestRoundTripMatchesActorLeg is the oracle for "no event moves": the same
// randomized scene, played once with the actor leg and once with RoundTrip,
// must produce the same (instant, event) log, the same meter counters —
// dropped ones included — the same server occupancy and the same spans with
// the same drop/stall annotations, and leave nothing parked.
func TestRoundTripMatchesActorLeg(t *testing.T) {
	asActor := func(l *sceneLeg) {
		actorLeg(l.sc.tr, l.from, l.to, l.class, l.req, l.sc.server, l.cost, l)
	}
	asRecord := func(l *sceneLeg) {
		l.trip.Start(l.sc.tr, l.from, l.to, l.class, l.req, l.sc.server, l.cost, l)
	}
	for _, mode := range []struct {
		name            string
		faulted, traced bool
	}{
		{"fast path", false, false},
		{"traced", false, true},
		{"faulted", true, false},
		{"faulted and traced", true, true},
	} {
		stalls, drops := 0, 0
		for seed := int64(1); seed <= 200; seed++ {
			want := runScene(seed, mode.faulted, mode.traced, asActor)
			got := runScene(seed, mode.faulted, mode.traced, asRecord)
			for i := 0; i < max(len(got.log), len(want.log)); i++ {
				a, b := "(nothing)", "(nothing)"
				if i < len(want.log) {
					a = want.log[i]
				}
				if i < len(got.log) {
					b = got.log[i]
				}
				if a != b {
					t.Fatalf("%s, seed %d: logs part at event %d:\nactor leg: %s\nRoundTrip: %s", mode.name, seed, i, a, b)
				}
			}
			if got.spans != want.spans {
				t.Fatalf("%s, seed %d: span lists differ:\nactor leg:\n%s\nRoundTrip:\n%s", mode.name, seed, want.spans, got.spans)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, seed %d: same log and spans, but\nactor leg: %+v\nRoundTrip: %+v", mode.name, seed,
					[]any{want.end, want.traffic, want.dropped, want.handled, want.busy, want.nSpans, want.parked},
					[]any{got.end, got.traffic, got.dropped, got.handled, got.busy, got.nSpans, got.parked})
			}
			if got.parked != 0 {
				t.Fatalf("%s, seed %d: %d parked after Drain", mode.name, seed, got.parked)
			}
			stalls += strings.Count(got.spans, `"detail":"stall"`)
			drops += int(got.dropped[LinkClient].Messages + got.dropped[LinkReplica].Messages)
		}
		if mode.faulted && drops == 0 {
			t.Errorf("%s: no message was dropped in 200 scenes", mode.name)
		}
		if mode.faulted && mode.traced && stalls == 0 {
			t.Errorf("%s: no span was annotated stall in 200 scenes", mode.name)
		}
	}
}

// TestRoundTripStalledForGoodIsParked: liveness survives the move. A leg
// waiting on a link that never heals is no goroutine any more, but it still
// counts as parked once the clock has drained — which is what the quiescence
// post-condition of a world reads — until the transition it waits for comes.
func TestRoundTripStalledForGoodIsParked(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewTransport(clock, DefaultLatencies(), NewMeter(), 1)
	f := &scriptedFaults{clock: clock, epoch: clock.NewEvent(), down: map[[2]Region]bool{pairKey(FRK, IRL): true}}
	tr.SetInterceptor(f)
	sc := &scene{clock: clock}
	l := &sceneLeg{sc: sc, joined: clock.NewQueue(), resp: 10}
	before := clock.Spawned()
	l.trip.Start(tr, FRK, IRL, LinkReplica, 10, NewServer(clock, 1), time.Millisecond, l)
	clock.Drain()
	if n := clock.Parked(); n != 1 {
		t.Fatalf("Parked() = %d after Drain, want the one stalled leg", n)
	}
	if len(sc.log) != 0 {
		t.Fatalf("the stalled leg got somewhere: %v", sc.log)
	}
	f.at(clock.Now()+time.Second, func() { f.down = nil })
	clock.Drain()
	if n := clock.Parked(); n != 0 {
		t.Errorf("Parked() = %d once the link healed, want 0", n)
	}
	if len(sc.log) != 2 || !strings.HasSuffix(sc.log[1], "done 0") {
		t.Errorf("after the heal the leg logged %v, want serve and done", sc.log)
	}
	if n := clock.Spawned() - before; n != 0 {
		t.Errorf("the leg started %d actors, want none", n)
	}
}

// TestContinuationEdgeRules pins the three rules that keep a continuation on
// the events of the actor it replaces.
func TestContinuationEdgeRules(t *testing.T) {
	t.Run("After(0) and At(now) run on the spot and arm nothing", func(t *testing.T) {
		c := NewVirtualClock()
		c.Sleep(time.Second)
		ran := 0
		c.After(0, func() { ran++ })
		c.After(-time.Millisecond, func() { ran++ })
		c.At(c.Now(), func() { ran++ })
		c.At(c.Now()-time.Millisecond, func() { ran++ })
		fired := c.NewEvent()
		fired.Fire()
		fired.Then(func() { ran++ })
		if ran != 5 {
			t.Errorf("%d of 5 continuations ran before their call returned", ran)
		}
		if n := c.timers.len() + c.ready.len() + c.Parked(); n != 0 {
			t.Errorf("they left %d timers, ready slots or waiters behind", n)
		}
		c.After(time.Millisecond, func() { ran++ })
		c.At(c.Now()+time.Millisecond, func() { ran++ })
		if ran != 5 || c.timers.len() != 2 {
			t.Errorf("a continuation due later ran early (ran=%d) or armed no timer (%d armed)", ran, c.timers.len())
		}
		c.Drain()
		if ran != 7 {
			t.Errorf("ran = %d after Drain, want 7", ran)
		}
	})

	t.Run("Run keeps FIFO order against interleaved Gos", func(t *testing.T) {
		c := NewVirtualClock()
		var order []int
		before := c.Spawned()
		for i := 0; i < 8; i++ {
			if i%2 == 0 {
				c.Go(func() { order = append(order, i) })
			} else {
				c.Run(func() { order = append(order, i) })
			}
		}
		c.Drain()
		if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
			t.Errorf("ran in order %v", order)
		}
		if n := c.Spawned() - before; n != 4 {
			t.Errorf("Spawned counted %d, want the 4 actors and no continuation", n)
		}
	})

	t.Run("a continuation must not block", func(t *testing.T) {
		for _, entry := range []string{"Run", "Then"} {
			for _, op := range []string{"Sleep", "Wait", "Get", "Drain"} {
				c := NewVirtualClock()
				block := map[string]func(){
					"Sleep": func() { c.Sleep(time.Second) },
					"Wait":  c.NewEvent().Wait,
					"Get":   func() { c.NewQueue().Get() },
					"Drain": c.Drain,
				}[op]
				c.RunAfter(time.Hour, func() {}) // something for Drain to wait for
				if entry == "Run" {
					c.Run(block)
				} else {
					ev := c.NewEvent()
					ev.Then(block)
					ev.Fire()
				}
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "callback timer attempted to block") {
							t.Errorf("%s continuation calling %s: recovered %v, want the fail-fast panic", entry, op, r)
						}
					}()
					c.Drain()
				}()
			}
		}
	})
}
