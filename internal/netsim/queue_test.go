package netsim

import (
	"testing"
	"time"
)

// TestServerQueueDelay: QueueDelay reports the wait a job arriving now
// would incur — 0 when a slot is free, the earliest slot's remaining
// booking otherwise — and reflects reservations immediately, which is what
// makes it a usable backpressure probe.
func TestServerQueueDelay(t *testing.T) {
	clock := NewVirtualClock()
	s := NewServer(clock, 1)
	if d := s.QueueDelay(); d != 0 {
		t.Fatalf("idle QueueDelay = %v, want 0", d)
	}
	g := clock.NewGroup()
	for i := 0; i < 2; i++ {
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			s.Process(100 * time.Millisecond)
		})
	}
	clock.Sleep(10 * time.Millisecond)
	// Two 100ms jobs booked on one worker: the earliest slot frees at
	// 200ms, so a job arriving at 10ms waits 190ms.
	if d := s.QueueDelay(); d != 190*time.Millisecond {
		t.Errorf("saturated QueueDelay = %v, want 190ms", d)
	}
	g.Wait()
	if d := s.QueueDelay(); d != 0 {
		t.Errorf("drained QueueDelay = %v, want 0", d)
	}
}

// TestServerQueueDelayPicksEarliestSlot: with several workers the delay is
// governed by the soonest-free slot, not the most loaded one.
func TestServerQueueDelayPicksEarliestSlot(t *testing.T) {
	clock := NewVirtualClock()
	s := NewServer(clock, 2)
	g := clock.NewGroup()
	costs := []time.Duration{30 * time.Millisecond, 80 * time.Millisecond}
	for _, c := range costs {
		c := c
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			s.Process(c)
		})
	}
	clock.Sleep(10 * time.Millisecond)
	if d := s.QueueDelay(); d != 20*time.Millisecond {
		t.Errorf("QueueDelay = %v, want 20ms (earliest of the two slots)", d)
	}
	g.Wait()
}

// TestMeterLoadStats: the admission-outcome counters are per-class and
// nil-safe.
func TestMeterLoadStats(t *testing.T) {
	var nilMeter *Meter
	nilMeter.AccountRejected(LinkClient) // must not panic
	nilMeter.AccountShed(LinkClient)
	nilMeter.AccountRetried(LinkClient)
	if got := nilMeter.Load(LinkClient); got != (LoadStats{}) {
		t.Errorf("nil meter Load = %+v", got)
	}

	m := NewMeter()
	m.AccountRejected(LinkClient)
	m.AccountRejected(LinkClient)
	m.AccountShed(LinkClient)
	m.AccountRetried(LinkReplica)
	if got := m.Load(LinkClient); got != (LoadStats{Rejected: 2, Shed: 1}) {
		t.Errorf("client class = %+v", got)
	}
	if got := m.Load(LinkReplica); got != (LoadStats{Retried: 1}) {
		t.Errorf("replica class = %+v", got)
	}
}
