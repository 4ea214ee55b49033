package netsim

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// timerWorld is what a randomized timer schedule drives: the clock under
// test, or the reference that keeps stopped timers' entries as no-ops.
type timerWorld interface {
	now() time.Duration
	// arm arms (or re-arms) timer k to ring after d.
	arm(k int, d time.Duration)
	// stop stops timer k; reports whether it was pending.
	stop(k int) bool
	// runAt schedules a step of the schedule at instant at.
	runAt(at time.Duration, fn func())
	// pending counts the entries that can still ring or run.
	pending() int
}

// fireRec is one timer ring: instant, the arming it came from, the timer.
type fireRec struct {
	at  time.Duration
	seq int
	k   int
}

// timerSchedule plays one randomized arm/stop schedule on a world and logs
// every ring, every Stop's verdict and, after each step, the pending count.
// Both worlds consume the same random draws as long as they ring the same
// timers in the same order.
type timerSchedule struct {
	w      timerWorld
	rng    *rand.Rand
	budget int
	seq    int   // arming counter: each arm and each step takes the next
	armed  []int // per timer: the seq of its latest arming
	fires  []fireRec
	stops  []bool
	counts []int
}

const scheduleTimers = 6

func newTimerSchedule(w timerWorld, seed uint64) *timerSchedule {
	return &timerSchedule{w: w, rng: rand.New(rand.NewPCG(seed, 7)), budget: 300, armed: make([]int, scheduleTimers)}
}

// delay draws a delay from a small range, so that same-instant ties (and
// zero delays) are common.
func (s *timerSchedule) delay() time.Duration {
	return time.Duration(s.rng.IntN(4)) * time.Millisecond
}

// step performs one to three random actions: arm or re-arm a timer, stop a
// timer (pending, rung or stopped already), or schedule a further step.
func (s *timerSchedule) step() {
	for n := 1 + s.rng.IntN(3); n > 0 && s.budget > 0; n-- {
		s.budget--
		k := s.rng.IntN(scheduleTimers)
		switch s.rng.IntN(10) {
		case 0, 1, 2, 3:
			s.armed[k] = s.seq
			s.seq++
			s.w.arm(k, s.delay())
		case 4, 5, 6:
			s.stops = append(s.stops, s.w.stop(k))
		default:
			s.seq++
			s.w.runAt(s.w.now()+s.delay(), s.step)
		}
	}
	s.counts = append(s.counts, s.w.pending())
}

// ring is timer k's alarm: log the ring, then act from inside it (which
// may stop or re-arm this very timer).
func (s *timerSchedule) ring(k int) {
	s.fires = append(s.fires, fireRec{s.w.now(), s.armed[k], k})
	s.step()
}

// start schedules the first steps.
func (s *timerSchedule) start() {
	for i := 0; i < 3; i++ {
		s.seq++
		s.w.runAt(time.Duration(s.rng.IntN(3))*time.Millisecond, s.step)
	}
}

// clockWorld drives VirtualClock's Timer.
type clockWorld struct {
	c      *VirtualClock
	s      *timerSchedule
	timers [scheduleTimers]Timer
	alarms [scheduleTimers]scheduleAlarm
}

type scheduleAlarm struct {
	s *timerSchedule
	k int
}

func (a *scheduleAlarm) Ring() { a.s.ring(a.k) }

func (w *clockWorld) now() time.Duration                { return w.c.Now() }
func (w *clockWorld) arm(k int, d time.Duration)        { w.c.ArmAfter(&w.timers[k], d, &w.alarms[k]) }
func (w *clockWorld) stop(k int) bool                   { return w.c.StopTimer(&w.timers[k]) }
func (w *clockWorld) runAt(at time.Duration, fn func()) { w.c.RunAt(at, fn) }
func (w *clockWorld) pending() int                      { return w.c.PendingTimers() }

// refWorld is the reference: one list of entries popped in (deadline,
// sequence) order, where a stopped timer's entry stays behind and is
// skipped when its turn comes, as a closure-per-arm timer whose callback
// finds its operation closed would be.
type refWorld struct {
	t       time.Duration
	seq     int
	entries []refEntry
	gen     [scheduleTimers]int // bumped by every arm and stop
	live    [scheduleTimers]bool
	s       *timerSchedule
}

type refEntry struct {
	at       time.Duration
	seq      int
	k, gen   int    // a timer's entry
	fn       func() // or a step
	isTimer  bool
	canceled bool
}

func (w *refWorld) now() time.Duration { return w.t }

func (w *refWorld) push(e refEntry) {
	e.seq = w.seq
	w.seq++
	w.entries = append(w.entries, e)
}

func (w *refWorld) arm(k int, d time.Duration) {
	w.gen[k]++
	w.live[k] = true
	w.push(refEntry{at: w.t + d, k: k, gen: w.gen[k], isTimer: true})
}

func (w *refWorld) stop(k int) bool {
	was := w.live[k]
	w.live[k] = false
	w.gen[k]++
	return was
}

func (w *refWorld) runAt(at time.Duration, fn func()) { w.push(refEntry{at: max(at, w.t), fn: fn}) }

func (w *refWorld) pending() int {
	n := 0
	for _, e := range w.entries {
		if !e.isTimer || (w.live[e.k] && w.gen[e.k] == e.gen) {
			n++
		}
	}
	return n
}

func (w *refWorld) run() {
	for len(w.entries) > 0 {
		i := 0
		for j, e := range w.entries {
			if e.at < w.entries[i].at || (e.at == w.entries[i].at && e.seq < w.entries[i].seq) {
				i = j
			}
		}
		e := w.entries[i]
		w.entries = slices.Delete(w.entries, i, i+1)
		w.t = max(w.t, e.at)
		switch {
		case !e.isTimer:
			e.fn()
		case w.live[e.k] && w.gen[e.k] == e.gen:
			w.live[e.k] = false
			w.s.ring(e.k)
		}
	}
}

// TestTimerMatchesNoOpReference plays randomized arm/stop schedules —
// same-instant ties, zero delays, re-arming a pending timer, stopping from
// inside a callback (the ringing timer's own included) and stopping a rung
// or stopped timer — on the clock's Timer and on the reference. The rings
// (instant, arming, timer), the Stop verdicts and the pending counts after
// every step must agree, and the drained clock's heap must be empty: a
// stopped timer leaves no entry behind.
func TestTimerMatchesNoOpReference(t *testing.T) {
	rings, cancelled, noops := 0, 0, 0
	for seed := uint64(0); seed < 300; seed++ {
		c := NewVirtualClock()
		cw := &clockWorld{c: c}
		got := newTimerSchedule(cw, seed)
		cw.s = got
		for k := range cw.alarms {
			cw.alarms[k] = scheduleAlarm{got, k}
		}
		got.start()
		c.Drain()

		rw := &refWorld{}
		want := newTimerSchedule(rw, seed)
		rw.s = want
		want.start()
		rw.run()

		if !slices.Equal(got.fires, want.fires) {
			t.Fatalf("seed %d: rings differ\nclock     %v\nreference %v", seed, got.fires, want.fires)
		}
		if !slices.Equal(got.stops, want.stops) || !slices.Equal(got.counts, want.counts) {
			t.Fatalf("seed %d: stop verdicts %v / pending counts %v, reference %v / %v",
				seed, got.stops, got.counts, want.stops, want.counts)
		}
		if n := c.PendingTimers(); n != 0 {
			t.Fatalf("seed %d: %d heap entries left after Drain", seed, n)
		}
		rings += len(got.fires)
		for _, pending := range got.stops {
			if pending {
				cancelled++
			} else {
				noops++
			}
		}
	}
	if rings == 0 || cancelled == 0 || noops == 0 {
		t.Fatalf("%d rings, %d stops of pending timers, %d of rung or stopped ones: want some of each", rings, cancelled, noops)
	}
	t.Logf("%d rings, %d stops of pending timers, %d of rung or stopped ones", rings, cancelled, noops)
}
