package load

import (
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/netsim"
)

// TestPoissonScheduleReplaysPerSeed: the whole point of building arrivals
// on the virtual clock — the same seed produces the identical open-loop
// schedule, instant for instant.
func TestPoissonScheduleReplaysPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		clock := netsim.NewVirtualClock()
		var at []time.Duration
		Start(clock, NewPoisson(500, seed), 2*time.Second, func(int) {
			at = append(at, clock.Now())
		})
		clock.Drain()
		return at
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("no arrivals scheduled")
	}
	if len(a) != len(b) {
		t.Fatalf("replay arrival counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d at %v vs %v on replay", i, a[i], b[i])
		}
	}
	// Sanity on the rate: ~500/s over 2s of model time.
	if n := len(a); n < 700 || n > 1300 {
		t.Errorf("Poisson(500) produced %d arrivals in 2s, want ~1000", n)
	}
	if c := run(8); len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Error("different seeds produced an identical-looking schedule")
	}
}

// TestOnOffRespectsOffWindows: no arrival may land inside an off window,
// and both on windows must see traffic.
func TestOnOffRespectsOffWindows(t *testing.T) {
	clock := netsim.NewVirtualClock()
	const on, off = 100 * time.Millisecond, 200 * time.Millisecond
	var at []time.Duration
	Start(clock, NewOnOff(1000, on, off, 3), 600*time.Millisecond, func(int) {
		at = append(at, clock.Now())
	})
	clock.Drain()
	if len(at) == 0 {
		t.Fatal("no arrivals")
	}
	seenCycle := map[time.Duration]bool{}
	for _, a := range at {
		cycle := a / (on + off)
		within := a - cycle*(on+off)
		if within >= on {
			t.Fatalf("arrival at %v falls %v into the cycle, inside the off window", a, within)
		}
		seenCycle[cycle] = true
	}
	if !seenCycle[0] || !seenCycle[1] {
		t.Errorf("on windows hit: %v, want both cycle 0 and 1", seenCycle)
	}
}

// TestTokenBucketBurstBoundary: exactly Burst immediate takes succeed from
// a full bucket; the next fails.
func TestTokenBucketBurstBoundary(t *testing.T) {
	b := NewTokenBucket(10, 5)
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		if !b.Take(now) {
			t.Fatalf("take %d of burst 5 refused", i+1)
		}
	}
	if b.Take(now) {
		t.Fatal("take 6 of burst 5 admitted")
	}
}

// TestTokenBucketRefillAcrossVirtualTimeJump: a long idle jump refills to
// exactly the burst capacity (no unbounded credit), and refill accrues
// fractionally.
func TestTokenBucketRefillAcrossVirtualTimeJump(t *testing.T) {
	b := NewTokenBucket(10, 5) // 10 tokens/s, capacity 5
	for i := 0; i < 5; i++ {
		b.Take(0)
	}
	// 100ms refills exactly one token.
	if !b.Take(100 * time.Millisecond) {
		t.Fatal("one refilled token not granted after 100ms")
	}
	if b.Take(100 * time.Millisecond) {
		t.Fatal("second take granted from a single refilled token")
	}
	// A 10-minute virtual-time jump credits only the burst capacity.
	later := 10 * time.Minute
	if got := b.Tokens(later); got != 5 {
		t.Fatalf("after a long idle jump bucket holds %v tokens, want exactly burst 5", got)
	}
	for i := 0; i < 5; i++ {
		if !b.Take(later) {
			t.Fatalf("take %d after refill refused", i+1)
		}
	}
	if b.Take(later) {
		t.Fatal("bucket over-credited across the time jump")
	}
}

// hoverSample returns a Sample func alternating just-over/just-under the
// threshold — the adversarial input for hysteresis.
func hoverSample(threshold time.Duration) func() time.Duration {
	i := 0
	return func() time.Duration {
		i++
		if i%2 == 0 {
			return threshold + time.Millisecond
		}
		return threshold - time.Millisecond
	}
}

// TestBackpressureHysteresisNoFlapping: a queue delay hovering around the
// threshold must not flap degraded mode — alternating samples never
// produce the consecutive run lengths the mode transitions require.
func TestBackpressureHysteresisNoFlapping(t *testing.T) {
	clock := netsim.NewVirtualClock()
	c := NewController(Config{
		Clock:         clock,
		Sample:        hoverSample(50 * time.Millisecond),
		SampleEvery:   10 * time.Millisecond,
		Threshold:     50 * time.Millisecond,
		MaxRate:       1000,
		DegradeToWeak: true,
		EnterAfter:    2,
		ExitAfter:     4,
	})
	c.Start()
	transitions := 0
	last := c.Degraded()
	clock.Go(func() {
		for i := 0; i < 100; i++ {
			clock.Sleep(10 * time.Millisecond)
			if d := c.Degraded(); d != last {
				transitions++
				last = d
			}
		}
		c.Stop()
	})
	clock.Drain()
	if transitions != 0 {
		t.Errorf("degraded mode flapped %d times on threshold-hovering samples", transitions)
	}
	if last {
		t.Error("alternating samples engaged degraded mode without a sustained over-threshold run")
	}
}

// TestControllerDegradeEnterAndExit: sustained overload engages degraded
// mode after EnterAfter samples; sustained health disengages it after
// ExitAfter — and a sample exactly AT the threshold counts as clean.
func TestControllerDegradeEnterAndExit(t *testing.T) {
	clock := netsim.NewVirtualClock()
	delay := 200 * time.Millisecond // over
	c := NewController(Config{
		Clock:         clock,
		Sample:        func() time.Duration { return delay },
		SampleEvery:   10 * time.Millisecond,
		Threshold:     50 * time.Millisecond,
		MaxRate:       1000,
		MinRate:       10,
		DegradeToWeak: true,
		EnterAfter:    3,
		ExitAfter:     2,
	})
	c.Start()
	clock.Go(func() {
		clock.Sleep(25 * time.Millisecond) // 2 samples < EnterAfter
		if c.Degraded() {
			t.Error("degraded after only 2 over-threshold samples (EnterAfter 3)")
		}
		clock.Sleep(20 * time.Millisecond) // 4 samples total
		if !c.Degraded() {
			t.Error("not degraded after 4 consecutive over-threshold samples")
		}
		if rate := c.AdmitRate(); rate >= 1000 {
			t.Errorf("admit rate %v did not decrease under overload", rate)
		}
		delay = 50 * time.Millisecond // exactly at threshold = clean
		clock.Sleep(25 * time.Millisecond)
		if c.Degraded() {
			t.Error("still degraded after ExitAfter clean samples")
		}
		c.Stop()
	})
	clock.Drain()
}

// TestControllerPerClientBucketAndMeter: an abusive client is rejected by
// its own bucket with the typed retryable error; a quiet client on the
// same gate is admitted; the meter accounts the outcomes.
func TestControllerPerClientBucketAndMeter(t *testing.T) {
	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	c := NewController(Config{
		Clock:          clock,
		PerClientRate:  100,
		PerClientBurst: 2,
		Meter:          meter,
	})
	op := binding.Get{Key: "k"}
	for i := 0; i < 2; i++ {
		if dec, err := c.Admit("hog", op); dec != binding.AdmissionAdmit || err != nil {
			t.Fatalf("burst take %d: dec=%v err=%v", i+1, dec, err)
		}
	}
	dec, err := c.Admit("hog", op)
	if dec != binding.AdmissionReject {
		t.Fatalf("over-burst attempt admitted (dec=%v)", dec)
	}
	if !binding.IsRetryable(err) {
		t.Errorf("rejection error %v is not retryable", err)
	}
	if dec, err := c.Admit("quiet", op); dec != binding.AdmissionAdmit || err != nil {
		t.Errorf("quiet client hit the hog's bucket: dec=%v err=%v", dec, err)
	}
	ls := meter.Load(netsim.LinkClient)
	if ls.Rejected != 1 || ls.Shed != 0 {
		t.Errorf("meter load stats %+v, want exactly 1 rejection", ls)
	}
	meter.AccountRetried(netsim.LinkClient)
	if got := meter.Load(netsim.LinkClient).Retried; got != 1 {
		t.Errorf("retried counter %d, want 1", got)
	}
}
