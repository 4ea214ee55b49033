package netsim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultLatenciesPaperValues(t *testing.T) {
	m := DefaultLatencies()
	if got := m.RTT(IRL, FRK); got != 20*time.Millisecond {
		t.Errorf("IRL-FRK RTT = %v, want 20ms (paper §6.2.1)", got)
	}
	if got := m.RTT(IRL, VRG); got != 83*time.Millisecond {
		t.Errorf("IRL-VRG RTT = %v, want 83ms (paper §6.2.2)", got)
	}
	if got := m.RTT(IRL, IRL); got != 2*time.Millisecond {
		t.Errorf("local RTT = %v, want 2ms", got)
	}
}

func TestRTTSymmetry(t *testing.T) {
	m := DefaultLatencies()
	regions := []Region{FRK, IRL, VRG, NCA, ORE}
	for _, a := range regions {
		for _, b := range regions {
			if m.RTT(a, b) != m.RTT(b, a) {
				t.Errorf("RTT(%s,%s) != RTT(%s,%s)", a, b, b, a)
			}
			if m.OneWay(a, b)*2 != m.RTT(a, b) {
				t.Errorf("OneWay(%s,%s)*2 != RTT", a, b)
			}
		}
	}
}

func TestRTTUnknownPairPanics(t *testing.T) {
	m := &LatencyModel{RTTs: map[[2]Region]time.Duration{}, LocalRTT: time.Millisecond}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown region pair")
		}
	}()
	m.RTT(FRK, IRL)
}

func TestSortByProximity(t *testing.T) {
	m := DefaultLatencies()
	got := m.SortByProximity(FRK, []Region{VRG, IRL, FRK})
	want := []Region{FRK, IRL, VRG}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortByProximity = %v, want %v", got, want)
		}
	}
	// Input slice must not be mutated.
	in := []Region{VRG, FRK}
	_ = m.SortByProximity(FRK, in)
	if in[0] != VRG {
		t.Error("SortByProximity mutated its input")
	}
}

func TestStopwatchModelTime(t *testing.T) {
	c := NewVirtualClock()
	sw := c.StartStopwatch()
	c.Sleep(50 * time.Millisecond)
	if got := sw.ElapsedModel(); got != 50*time.Millisecond {
		t.Errorf("ElapsedModel = %v, want exactly 50ms", got)
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter()
	m.Account(LinkClient, 100)
	m.Account(LinkClient, 50)
	m.Account(LinkReplica, 10)
	if s := m.Class(LinkClient); s.Bytes != 150 || s.Messages != 2 {
		t.Errorf("client stats = %+v", s)
	}
	if s := m.Class(LinkReplica); s.Bytes != 10 || s.Messages != 1 {
		t.Errorf("replica stats = %+v", s)
	}
	if snap := m.Snapshot(); snap[LinkClient] != m.Class(LinkClient) || snap[LinkReplica] != m.Class(LinkReplica) {
		t.Errorf("snapshot = %+v", snap)
	}
	// The two classes are the only ones: any other is a bug at the caller.
	defer func() {
		if recover() == nil {
			t.Error("Account on an unknown link class did not panic")
		}
	}()
	m.Account("custom", 7)
}

func TestNilMeterAccountIsNoop(t *testing.T) {
	var m *Meter
	m.Account(LinkClient, 10) // must not panic
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				m.Account(LinkClient, 1)
			}
		}()
	}
	wg.Wait()
	if s := m.Class(LinkClient); s.Bytes != workers*per || s.Messages != workers*per {
		t.Errorf("concurrent accounting lost updates: %+v", s)
	}
}

func TestTransportTravelLatencyAndAccounting(t *testing.T) {
	clock := NewVirtualClock()
	meter := NewMeter()
	tr := NewTransport(clock, DefaultLatencies(), meter, 1)
	sw := clock.StartStopwatch()
	tr.Travel(IRL, FRK, LinkClient, 100)
	elapsed := sw.ElapsedModel()
	// One-way IRL->FRK is 10ms model, plus bounded jitter/tail.
	if elapsed < 9*time.Millisecond || elapsed > 16*time.Millisecond {
		t.Errorf("one-way model latency = %v, want ~10ms", elapsed)
	}
	if s := meter.Class(LinkClient); s.Bytes != 100 || s.Messages != 1 {
		t.Errorf("meter = %+v", s)
	}
}

func TestTransportSendAsync(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewTransport(clock, DefaultLatencies(), NewMeter(), 2)
	var deliveredAt time.Duration = -1
	tr.Send(IRL, VRG, LinkReplica, 10, func() { deliveredAt = clock.Now() })
	// Send returns without advancing model time.
	if clock.Now() != 0 {
		t.Error("Send advanced model time for the caller")
	}
	clock.Drain()
	// One-way IRL->VRG is 41.5ms model, plus bounded jitter/tail.
	if deliveredAt < 35*time.Millisecond || deliveredAt > 60*time.Millisecond {
		t.Errorf("async delivery at %v model, want ~41.5ms", deliveredAt)
	}
}

func TestTransportSendAfterExtraDelay(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewTransport(clock, DefaultLatencies(), NewMeter(), 3)
	var deliveredAt time.Duration = -1
	tr.SendAfter(200*time.Millisecond, IRL, IRL, LinkReplica, 1, func() { deliveredAt = clock.Now() })
	clock.Drain()
	if deliveredAt < 200*time.Millisecond {
		t.Errorf("SendAfter delivered at %v model, want >= ~201ms", deliveredAt)
	}
}

// Property: sampled one-way delays are positive and within the configured
// jitter+tail envelope of the base latency.
func TestPropertyTransportJitterBounds(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewTransport(clock, DefaultLatencies(), nil, 42)
	f := func(seed int64) bool {
		d := tr.sample(IRL, FRK)
		base := 10 * time.Millisecond
		min := time.Duration(float64(base) * (1 - tr.JitterFrac - 0.001))
		// Exponential tail is unbounded in theory; 12x mean is astronomically
		// unlikely (e^-12) across the samples quick generates.
		max := time.Duration(float64(base) * (1 + tr.JitterFrac + 12*tr.TailMeanFrac))
		return d >= min && d <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestServerCapacityAndQueueing(t *testing.T) {
	clock := NewVirtualClock()
	s := NewServer(clock, 1)
	const cost = 5 * time.Millisecond
	g := clock.NewGroup()
	for i := 0; i < 4; i++ {
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			s.Process(cost)
		})
	}
	g.Wait()
	// 4 jobs x 5ms on 1 worker take exactly 20ms of model time.
	if got := clock.Now(); got != 4*cost {
		t.Errorf("4 serialized jobs finished at %v model, want %v", got, 4*cost)
	}
	if s.Handled() != 4 {
		t.Errorf("Handled = %d", s.Handled())
	}
	if s.BusyModelTime() != 4*cost {
		t.Errorf("BusyModelTime = %v", s.BusyModelTime())
	}
}

func TestServerParallelism(t *testing.T) {
	clock := NewVirtualClock()
	s := NewServer(clock, 4)
	const cost = 10 * time.Millisecond
	g := clock.NewGroup()
	for i := 0; i < 4; i++ {
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			s.Process(cost)
		})
	}
	g.Wait()
	if got := clock.Now(); got != cost {
		t.Errorf("4 parallel jobs on 4 workers finished at %v model, want %v", got, cost)
	}
}

func TestServerZeroWorkersClamped(t *testing.T) {
	s := NewServer(NewVirtualClock(), 0)
	s.Process(0) // must not deadlock
}

// TestServerReserveMatchesProcess: Reserve books exactly the capacity
// Process would, and a caller that reserves k slots then sleeps once on the
// latest deadline observes the same completion time as k serial Process
// calls spread over the worker slots.
func TestServerReserveMatchesProcess(t *testing.T) {
	c := NewVirtualClock()
	s := NewServer(c, 2)
	const cost = 4 * time.Millisecond

	// 4 reservations on 2 slots: completions at 4, 4, 8, 8 ms.
	var latest time.Duration
	for i := 0; i < 4; i++ {
		if end := s.Reserve(cost); end > latest {
			latest = end
		}
	}
	if latest != 8*time.Millisecond {
		t.Fatalf("latest deadline = %v, want 8ms", latest)
	}
	c.SleepUntil(latest)
	if got := s.BusyModelTime(); got != 16*time.Millisecond {
		t.Fatalf("busy model time = %v, want 16ms", got)
	}
	if got := s.Handled(); got != 4 {
		t.Fatalf("handled = %d, want 4", got)
	}
	if d := s.QueueDelay(); d != 0 {
		t.Fatalf("queue delay after drain = %v, want 0", d)
	}
}
