package netsim

import (
	"testing"
	"time"
)

// stubInterceptor returns a fixed verdict/factor; Changed flips the verdict
// to deliver and hands out a fired event, so stalled senders make progress
// on the recheck.
type stubInterceptor struct {
	verdict Verdict
	factor  float64
	awaited int
	healed  *Event
}

func (s *stubInterceptor) Intercept(from, to Region, class string) (Verdict, float64) {
	return s.verdict, s.factor
}

func (s *stubInterceptor) Changed() *Event {
	s.awaited++
	s.verdict = VerdictDeliver
	return s.healed
}

func TestTransportInterceptorDeliverFactor(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewTransport(clock, DefaultLatencies(), NewMeter(), 1)
	base := tr.Model().OneWay(IRL, VRG)

	sw := clock.StartStopwatch()
	tr.Travel(IRL, VRG, LinkClient, 10)
	plain := sw.ElapsedModel()

	tr.SetInterceptor(&stubInterceptor{verdict: VerdictDeliver, factor: 5})
	sw = clock.StartStopwatch()
	tr.Travel(IRL, VRG, LinkClient, 10)
	spiked := sw.ElapsedModel()

	if spiked < 4*base || plain > 2*base {
		t.Errorf("plain %v, x5 %v (one-way %v): factor not applied", plain, spiked, base)
	}
	clock.Drain()
}

func TestTransportInterceptorDropAndStallAsync(t *testing.T) {
	clock := NewVirtualClock()
	meter := NewMeter()
	tr := NewTransport(clock, DefaultLatencies(), meter, 1)

	delivered := 0
	tr.SetInterceptor(&stubInterceptor{verdict: VerdictDrop, factor: 1})
	if tr.Send(IRL, VRG, LinkReplica, 64, func() { delivered++ }) {
		t.Error("Send reported a dropped message as having left")
	}
	tr.SetInterceptor(&stubInterceptor{verdict: VerdictStall, factor: 1})
	if tr.SendAfter(time.Millisecond, IRL, VRG, LinkReplica, 64, func() { delivered++ }) {
		t.Error("SendAfter reported a stalled message as having left")
	}
	clock.Drain()

	if delivered != 0 {
		t.Errorf("%d async sends delivered through drop/stall verdicts", delivered)
	}
	if got := meter.Dropped(LinkReplica); got.Messages != 2 || got.Bytes != 128 {
		t.Errorf("dropped stats = %+v, want 2 msgs / 128 bytes", got)
	}
	if got := meter.Class(LinkReplica); got.Messages != 0 {
		t.Errorf("delivered stats = %+v, want untouched", got)
	}
}

// TestParkedCountsStrandedActors: an actor waiting on an event nobody will
// fire is what Parked reports once the clock has drained.
func TestParkedCountsStrandedActors(t *testing.T) {
	clock := NewVirtualClock()
	never := clock.NewEvent()
	clock.Go(never.Wait)
	clock.Go(func() { clock.Sleep(time.Millisecond) }) // a sleeper is not parked for good
	clock.Drain()
	if n := clock.Parked(); n != 1 {
		t.Fatalf("Parked() = %d after Drain, want the one stranded actor", n)
	}
	never.Fire()
	clock.Drain()
	if n := clock.Parked(); n != 0 {
		t.Errorf("Parked() = %d once the event fired, want 0", n)
	}
}

func TestTransportInterceptorStallSyncRetries(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewTransport(clock, DefaultLatencies(), NewMeter(), 1)
	icept := &stubInterceptor{verdict: VerdictStall, factor: 1, healed: clock.NewEvent()}
	icept.healed.Fire()
	tr.SetInterceptor(icept)
	tr.Travel(IRL, VRG, LinkClient, 10) // Changed flips to deliver
	if icept.awaited != 1 {
		t.Errorf("Changed called %d times, want 1", icept.awaited)
	}
	if got := tr.Meter().Class(LinkClient); got.Messages != 1 {
		t.Errorf("stalled-then-delivered message not accounted: %+v", got)
	}
	clock.Drain()
}

func TestMeterDroppedSeparate(t *testing.T) {
	m := NewMeter()
	m.Account(LinkClient, 100)
	m.AccountDropped(LinkClient, 40)
	m.AccountDropped(LinkReplica, 7)
	if got := m.Snapshot(); len(got) != 1 || got[LinkClient].Bytes != 100 {
		t.Errorf("delivered snapshot = %+v", got)
	}
	snap := m.SnapshotDropped()
	if snap[LinkClient].Bytes != 40 || snap[LinkReplica].Messages != 1 {
		t.Errorf("dropped snapshot = %+v", snap)
	}
}
