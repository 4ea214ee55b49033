package load

import (
	"fmt"
	"testing"
	"time"

	"correctables/internal/netsim"
)

// closureChainStart is Start as it was before the arrival chain became a
// record: a closure per arrival, each scheduling the next. It is the
// reference TestArrivalsMatchClosureChain holds the generator to.
func closureChainStart(clock netsim.Clock, proc ArrivalProcess, horizon time.Duration, fire func(i int)) {
	var schedule func(at time.Duration, i int)
	schedule = func(at time.Duration, i int) {
		if at >= horizon {
			return
		}
		clock.RunAt(at, func() {
			fire(i)
			schedule(at+proc.Next(), i+1)
		})
	}
	schedule(clock.Now()+proc.Next(), 0)
}

// recordedProcess logs every draw of the process it wraps, with the
// instant it was drawn at.
type recordedProcess struct {
	clock netsim.Clock
	inner ArrivalProcess
	log   *[]string
}

func (p recordedProcess) Next() time.Duration {
	d := p.inner.Next()
	*p.log = append(*p.log, fmt.Sprintf("next %v at %v", d, p.clock.Now()))
	return d
}

// TestArrivalsMatchClosureChain plays Poisson and OnOff processes, three
// seeds each, through Start and through the closure chain it replaced: the
// arrivals (instant, index) and the process draws (value, instant) must be
// the same sequence. Each arrival also schedules a timer of its own at its
// instant, so the chain's place among the clock's other work is compared
// too. The OnOff horizon falls inside an off window.
func TestArrivalsMatchClosureChain(t *testing.T) {
	const on, off = 100 * time.Millisecond, 50 * time.Millisecond
	procs := []struct {
		name    string
		proc    func(seed int64) ArrivalProcess
		horizon time.Duration
	}{
		{"poisson", func(seed int64) ArrivalProcess { return NewPoisson(1000, seed) }, 2500 * time.Millisecond},
		// 1620 ms is 120 ms into the eleventh 150 ms cycle: off.
		{"onoff", func(seed int64) ArrivalProcess { return NewOnOff(3000, on, off, seed) }, 1620 * time.Millisecond},
	}
	if within := procs[1].horizon % (on + off); within < on {
		t.Fatalf("the OnOff horizon falls %v into its cycle, inside the on window", within)
	}
	play := func(start func(netsim.Clock, ArrivalProcess, time.Duration, func(int)), proc ArrivalProcess, horizon time.Duration) (log []string, arrivals int) {
		clock := netsim.NewVirtualClock()
		clock.RunAt(horizon/3, func() { log = append(log, fmt.Sprintf("other timer at %v", clock.Now())) })
		start(clock, recordedProcess{clock, proc, &log}, horizon, func(i int) {
			arrivals++
			log = append(log, fmt.Sprintf("arrival %d at %v", i, clock.Now()))
			clock.RunAt(clock.Now(), func() { log = append(log, fmt.Sprintf("after %d at %v", i, clock.Now())) })
		})
		clock.Drain()
		return log, arrivals
	}
	for _, p := range procs {
		for _, seed := range []int64{1, 2, 3} {
			got, n := play(Start, p.proc(seed), p.horizon)
			want, _ := play(closureChainStart, p.proc(seed), p.horizon)
			if n < 2000 {
				t.Fatalf("%s seed %d: %d arrivals, want at least 2000", p.name, seed, n)
			}
			if len(got) != len(want) {
				t.Errorf("%s seed %d: %d events, the closure chain %d", p.name, seed, len(got), len(want))
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Errorf("%s seed %d: event %d is %q, the closure chain's %q", p.name, seed, i, got[i], want[i])
					break
				}
			}
		}
	}
}
