package faults

import (
	"testing"
	"time"

	"correctables/internal/netsim"
)

// newFabric builds a virtual-clock transport with a schedule-less injector;
// tests drive faults with Apply.
func newFabric(t *testing.T) (*netsim.VirtualClock, *netsim.Transport, *Injector) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	return clock, tr, Attach(tr, nil, 1)
}

func TestScheduleDSLOrdering(t *testing.T) {
	s := NewSchedule().
		At(3*time.Second, Heal{}).
		At(time.Second, Partition{Groups: [][]netsim.Region{{netsim.FRK}}}).
		At(time.Second, Crash{Region: netsim.VRG})
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].At != time.Second || evs[2].At != 3*time.Second {
		t.Errorf("not sorted: %v", evs)
	}
	// Stable: same-instant events keep insertion order.
	if _, ok := evs[0].Event.(Partition); !ok {
		t.Errorf("same-instant order not stable: %v", evs)
	}
	if s.Horizon() != 3*time.Second {
		t.Errorf("horizon = %v", s.Horizon())
	}
}

func TestRandomScheduleDeterministicAndBounded(t *testing.T) {
	profs, err := ProfilesByName("tracks-harsh", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profs {
		a, b := Random(7, p), Random(7, p)
		if a.String() != b.String() {
			t.Fatalf("%s: same seed diverged:\n%s\nvs\n%s", p.Name, a, b)
		}
		if len(a.Events()) == 0 {
			t.Fatalf("%s track generated no events over 20s horizon", p.Name)
		}
		for _, te := range a.Events() {
			if te.At > p.Horizon {
				t.Errorf("%s: event %v past horizon", p.Name, te)
			}
		}
		if Random(8, p).String() == a.String() {
			t.Errorf("%s: different seeds produced identical schedules", p.Name)
		}
	}
}

func TestParseSpec(t *testing.T) {
	for _, name := range ScenarioNames() {
		sc, err := ParseSpec(name, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Schedule == nil || len(sc.Phases) == 0 || sc.Horizon == 0 {
			t.Errorf("%s: incomplete scenario %+v", name, sc)
		}
	}
	if sc, err := ParseSpec("123:tracks-harsh", time.Second); err != nil || sc.Schedule == nil {
		t.Errorf("seed spec: %v, %+v", err, sc)
	}
	if _, err := ParseSpec("nope", time.Second); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ParseSpec("x:tracks-mild", time.Second); err == nil {
		t.Error("bad seed accepted")
	}
	for _, prof := range []string{"nope", "mild", "harsh"} {
		if _, err := ParseSpec("1:"+prof, time.Second); err == nil {
			t.Errorf("unknown profile %q accepted", prof)
		}
	}
}

func TestPartitionStallsTravelUntilHeal(t *testing.T) {
	clock, tr, inj := newFabric(t)
	inj.Apply(Partition{Groups: [][]netsim.Region{{netsim.FRK, netsim.IRL}, {netsim.VRG}}})

	done := clock.NewEvent()
	var finished time.Duration
	clock.Go(func() {
		tr.Travel(netsim.FRK, netsim.VRG, netsim.LinkReplica, 100)
		finished = clock.Now()
		done.Fire()
	})
	// Same-side traffic is unaffected.
	tr.Travel(netsim.FRK, netsim.IRL, netsim.LinkReplica, 100)

	clock.Sleep(5 * time.Second)
	if finished != 0 {
		t.Fatal("severed Travel completed during the partition")
	}
	healAt := clock.Now()
	inj.Apply(Heal{})
	done.Wait()
	if finished < healAt {
		t.Errorf("finished %v before heal %v", finished, healAt)
	}
	if got := finished - healAt; got > 200*time.Millisecond {
		t.Errorf("stalled Travel took %v after heal; want ~one-way delay", got)
	}
	inj.Quiesce()
	clock.Drain()
}

func TestCrashDropsAsyncAndCountsOnMeter(t *testing.T) {
	clock, tr, inj := newFabric(t)
	inj.Apply(Crash{Region: netsim.VRG})

	delivered := 0
	tr.Send(netsim.FRK, netsim.VRG, netsim.LinkReplica, 64, func() { delivered++ })
	tr.Send(netsim.FRK, netsim.IRL, netsim.LinkReplica, 64, func() { delivered++ })
	clock.Drain()
	if delivered != 1 {
		t.Errorf("delivered = %d, want only the FRK->IRL send", delivered)
	}
	if got := tr.Meter().Dropped(netsim.LinkReplica); got.Messages != 1 || got.Bytes != 64 {
		t.Errorf("dropped stats = %+v", got)
	}
	if got := tr.Meter().Class(netsim.LinkReplica); got.Messages != 1 {
		t.Errorf("delivered stats polluted: %+v", got)
	}
	inj.Apply(Restart{Region: netsim.VRG})
	tr.Send(netsim.FRK, netsim.VRG, netsim.LinkReplica, 64, func() { delivered++ })
	clock.Drain()
	if delivered != 2 {
		t.Error("send after restart not delivered")
	}
}

func TestLatencySpikeScalesAndExpires(t *testing.T) {
	clock, tr, inj := newFabric(t)
	base := tr.Model().OneWay(netsim.IRL, netsim.VRG)

	measure := func() time.Duration {
		sw := clock.StartStopwatch()
		tr.Travel(netsim.IRL, netsim.VRG, netsim.LinkClient, 10)
		return sw.ElapsedModel()
	}
	inj.Apply(LatencySpike{From: netsim.IRL, To: netsim.VRG, Factor: 10, Duration: 30 * time.Second})
	if got := measure(); got < 8*base {
		t.Errorf("spiked delay %v, want >= 8x one-way %v", got, base)
	}
	clock.Sleep(31 * time.Second) // spike expired via its own transition
	if got := measure(); got > 2*base {
		t.Errorf("post-expiry delay %v, want ~one-way %v", got, base)
	}
	if len(inj.Log()) != 2 {
		t.Errorf("log = %v, want spike + expiry", inj.Log())
	}
	clock.Drain()
}

func TestDropRuleLosesSyncMessagesButRetransmits(t *testing.T) {
	clock, tr, inj := newFabric(t)
	inj.Apply(Drop{From: netsim.IRL, To: netsim.VRG, Prob: 0.5, Duration: time.Hour})
	for i := 0; i < 20; i++ {
		tr.Travel(netsim.IRL, netsim.VRG, netsim.LinkClient, 10)
	}
	dropped := tr.Meter().Dropped(netsim.LinkClient).Messages
	if dropped == 0 {
		t.Error("p=0.5 drop rule lost no messages in 20 sends")
	}
	if got := tr.Meter().Class(netsim.LinkClient).Messages; got != 20 {
		t.Errorf("delivered %d messages, want all 20 (retransmit)", got)
	}
	inj.Quiesce()
	clock.Drain()
}

func TestQuiesceFreesStalledTraffic(t *testing.T) {
	clock, tr, inj := newFabric(t)
	inj.Apply(Crash{Region: netsim.VRG})
	done := clock.NewEvent()
	clock.Go(func() {
		tr.Travel(netsim.IRL, netsim.VRG, netsim.LinkClient, 10)
		done.Fire()
	})
	clock.Sleep(time.Second)
	inj.Quiesce()
	done.Wait() // would deadlock (and the clock would panic) if quiesce left the stall
	// Post-quiesce events are ignored.
	inj.Apply(Crash{Region: netsim.VRG})
	if inj.Down(netsim.VRG) {
		t.Error("event applied after Quiesce")
	}
	clock.Drain()
}
