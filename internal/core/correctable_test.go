package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestStatesAndTransitions(t *testing.T) {
	c, ctrl := newOnHost[any]()
	if got := c.State(); got != StateUpdating {
		t.Fatalf("new correctable state = %v, want updating", got)
	}
	if err := ctrl.Update("prelim", LevelWeak); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := c.State(); got != StateUpdating {
		t.Fatalf("state after update = %v, want updating", got)
	}
	if err := ctrl.Close("final", LevelStrong); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := c.State(); got != StateFinal {
		t.Fatalf("state after close = %v, want final", got)
	}
	views := c.Views()
	if len(views) != 2 {
		t.Fatalf("len(views) = %d, want 2", len(views))
	}
	if views[0].Value != "prelim" || views[0].Level != LevelWeak || views[0].Final {
		t.Errorf("view[0] = %+v", views[0])
	}
	if views[1].Value != "final" || views[1].Level != LevelStrong || !views[1].Final {
		t.Errorf("view[1] = %+v", views[1])
	}
	if views[0].Index != 0 || views[1].Index != 1 {
		t.Errorf("view indices = %d, %d", views[0].Index, views[1].Index)
	}
}

func TestUpdateAfterCloseFails(t *testing.T) {
	_, ctrl := newOnHost[any]()
	if err := ctrl.Close(1, LevelStrong); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Update(2, LevelWeak); !errors.Is(err, ErrClosed) {
		t.Errorf("Update after Close = %v, want ErrClosed", err)
	}
	if err := ctrl.Close(3, LevelStrong); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
	if err := ctrl.Fail(errors.New("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Fail after Close = %v, want ErrClosed", err)
	}
}

func TestErrorState(t *testing.T) {
	c, ctrl := newOnHost[any]()
	boom := errors.New("boom")
	var got error
	c.SetCallbacks(Callbacks[any]{OnError: func(err error) { got = err }})
	if err := ctrl.Fail(boom); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateError {
		t.Fatalf("state = %v, want error", c.State())
	}
	if _, err := c.Final(context.Background()); !errors.Is(err, boom) || !errors.Is(got, boom) {
		t.Errorf("Final err = %v, callback err = %v", err, got)
	}
	if err := ctrl.Update(1, LevelWeak); !errors.Is(err, ErrClosed) {
		t.Errorf("Update after Fail = %v, want ErrClosed", err)
	}
}

func TestCallbackOrderAndCounts(t *testing.T) {
	c, ctrl := newOnHost[any]()
	var updates []interface{}
	var finals, errCount int
	c.SetCallbacks(Callbacks[any]{
		OnUpdate: func(v View[any]) { updates = append(updates, v.Value) },
		OnFinal:  func(v View[any]) { finals++ },
		OnError:  func(error) { errCount++ },
	})
	_ = ctrl.Update(1, LevelWeak)
	_ = ctrl.Update(2, LevelCausal)
	_ = ctrl.Close(3, LevelStrong)
	if len(updates) != 3 || updates[0] != 1 || updates[1] != 2 || updates[2] != 3 {
		t.Errorf("updates = %v, want [1 2 3]", updates)
	}
	if finals != 1 {
		t.Errorf("finals = %d, want 1", finals)
	}
	if errCount != 0 {
		t.Errorf("errCount = %d, want 0", errCount)
	}
}

func TestLateSubscriberReplaysHistory(t *testing.T) {
	c, ctrl := newOnHost[any]()
	_ = ctrl.Update("a", LevelWeak)
	_ = ctrl.Close("b", LevelStrong)

	var updates []interface{}
	var final interface{}
	c.SetCallbacks(Callbacks[any]{
		OnUpdate: func(v View[any]) { updates = append(updates, v.Value) },
		OnFinal:  func(v View[any]) { final = v.Value },
	})
	if len(updates) != 2 || updates[0] != "a" || updates[1] != "b" {
		t.Errorf("replayed updates = %v", updates)
	}
	if final != "b" {
		t.Errorf("replayed final = %v", final)
	}
}

func TestLateSubscriberAfterError(t *testing.T) {
	c, ctrl := newOnHost[any]()
	_ = ctrl.Update("a", LevelWeak)
	_ = ctrl.Fail(errors.New("late"))
	var updates, errs int
	c.SetCallbacks(Callbacks[any]{
		OnUpdate: func(View[any]) { updates++ },
		OnError:  func(error) { errs++ },
	})
	if updates != 1 || errs != 1 {
		t.Errorf("updates=%d errs=%d, want 1,1", updates, errs)
	}
}

func TestReentrantAttachFromCallback(t *testing.T) {
	c, ctrl := newOnHost[any]()
	var inner []interface{}
	c.OnUpdate(func(v View[any]) {
		if v.Index == 0 {
			// Attaching from inside a callback must not deadlock, and the
			// new callback must still see the complete history.
			c.OnUpdate(func(v2 View[any]) { inner = append(inner, v2.Value) })
		}
	})
	_ = ctrl.Update(10, LevelWeak)
	_ = ctrl.Close(20, LevelStrong)
	if len(inner) != 2 || inner[0] != 10 || inner[1] != 20 {
		t.Errorf("inner saw %v, want [10 20]", inner)
	}
}

// TestOverflowSubscribersAndWaiters drives everything past a Correctable's
// inline subscriber and inline waiter through the overflow: a second and a
// third subscriber, one attached from inside a callback, two consumers
// blocked in Final across two transitions, and a late subscriber that
// replays the history. Every subscriber must see every view exactly once
// and in order, then its final callback once; both consumers must return
// the final view.
func TestOverflowSubscribersAndWaiters(t *testing.T) {
	// Each consumer parked in Final registers one event per transition:
	// two consumers, three transitions.
	sched := parkSignal{made: make(chan struct{}, 6)}
	c, ctrl := NewScheduled[int](sched, nil)
	var mu sync.Mutex
	seen := map[string][]int{} // views by subscriber, then -1 for OnFinal
	subscribe := func(name string, onView func(View[int])) {
		c.SetCallbacks(Callbacks[int]{
			OnUpdate: func(v View[int]) {
				mu.Lock()
				if v.Index != len(seen[name]) {
					t.Errorf("%s: view %d arrived after %d views", name, v.Index, len(seen[name]))
				}
				seen[name] = append(seen[name], v.Value)
				mu.Unlock()
				if onView != nil {
					onView(v)
				}
			},
			OnFinal: func(View[int]) {
				mu.Lock()
				seen[name] = append(seen[name], -1)
				mu.Unlock()
			},
		})
	}
	subscribe("first", func(v View[int]) {
		if v.Index == 0 {
			subscribe("from-callback", nil)
		}
	})
	subscribe("second", nil)
	subscribe("third", nil)

	// awaitParked returns once n consumers have registered for the next
	// transition: a consumer registers under c.mu, which the next delivery
	// takes, so the delivery comes after the registration.
	awaitParked := func(n int) {
		for i := 0; i < n; i++ {
			select {
			case <-sched.made:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d consumers parked in Final", i, n)
			}
		}
	}
	finals := make(chan View[int], 2)
	for i := 0; i < 2; i++ {
		go func() {
			v, err := c.Final(context.Background())
			if err != nil {
				t.Error(err)
			}
			finals <- v
		}()
	}
	awaitParked(2)
	_ = ctrl.Update(10, LevelWeak)
	awaitParked(2) // both woke and parked again: the overflow waiter was fired
	_ = ctrl.Update(20, LevelWeak)
	awaitParked(2)
	_ = ctrl.Close(30, LevelStrong)
	for i := 0; i < 2; i++ {
		select {
		case v := <-finals:
			if v.Value != 30 || !v.Final {
				t.Errorf("consumer %d got %+v, want the final view 30", i, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("consumer %d never woke from Final", i)
		}
	}
	subscribe("late", nil)

	want := []int{10, 20, 30, -1}
	for _, name := range []string{"first", "second", "third", "from-callback", "late"} {
		if got := seen[name]; len(got) != len(want) ||
			got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
			t.Errorf("%s saw %v, want %v", name, got, want)
		}
	}
}

// parkSignal is hostScheduler reporting each event a consumer parks on.
type parkSignal struct {
	hostScheduler
	made chan struct{}
}

func (s parkSignal) NewEvent() Event {
	s.made <- struct{}{}
	return s.hostScheduler.NewEvent()
}

// TestCorrectableSize: the first subscriber inline and the rest in one
// lazily allocated overflow keep a Correctable no larger than the slices
// they replaced. Every invocation allocates one.
func TestCorrectableSize(t *testing.T) {
	var c Correctable[[]byte]
	if got := unsafe.Sizeof(c); got > 280 {
		t.Errorf("Correctable[[]byte] is %d B, want at most 280", got)
	}
}

func TestReentrantDeliverFromCallback(t *testing.T) {
	c, ctrl := newOnHost[any]()
	var seen []interface{}
	c.OnUpdate(func(v View[any]) {
		seen = append(seen, v.Value)
		if v.Index == 0 {
			_ = ctrl.Close("fin", LevelStrong)
		}
	})
	_ = ctrl.Update("pre", LevelWeak)
	if len(seen) != 2 || seen[0] != "pre" || seen[1] != "fin" {
		t.Errorf("seen = %v, want [pre fin]", seen)
	}
	if c.State() != StateFinal {
		t.Errorf("state = %v", c.State())
	}
}

func TestFinalBlocksUntilClose(t *testing.T) {
	c, ctrl := newOnHost[any]()
	go func() {
		_ = ctrl.Update(1, LevelWeak)
		_ = ctrl.Close(2, LevelStrong)
	}()
	v, err := c.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != 2 || v.Level != LevelStrong || !v.Final {
		t.Errorf("final view = %+v", v)
	}
}

func TestFinalOnError(t *testing.T) {
	c, ctrl := newOnHost[any]()
	boom := errors.New("boom")
	_ = ctrl.Fail(boom)
	if _, err := c.Final(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Final = %v, want boom", err)
	}
}

// manualClock is hostScheduler with a model time the test sets.
type manualClock struct {
	hostScheduler
	now time.Duration
}

func (m *manualClock) Now() time.Duration { return m.now }

// TestTimingOf: the timing TimingOf reads off each shape an operation's
// view sequence can take. Latencies count from start, not from the clock's
// origin.
func TestTimingOf(t *testing.T) {
	const ms = time.Millisecond
	boom := errors.New("unreachable")
	type step struct {
		at    time.Duration // after start
		value string
		final bool
		fail  error
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  Timing
	}{
		{"preliminary equal to the final",
			[]step{{at: 10 * ms, value: "v"}, {at: 30 * ms, value: "v", final: true}},
			Timing{HasPrelim: true, Prelim: 10 * ms, HasFinal: true, Final: 30 * ms}},
		{"diverged preliminary",
			[]step{{at: 10 * ms, value: "old"}, {at: 30 * ms, value: "new", final: true}},
			Timing{HasPrelim: true, Prelim: 10 * ms, HasFinal: true, Final: 30 * ms, Diverged: true}},
		{"final only",
			[]step{{at: 30 * ms, value: "v", final: true}},
			Timing{HasFinal: true, Final: 30 * ms}},
		{"preliminary then error",
			[]step{{at: 10 * ms, value: "v"}, {at: 50 * ms, fail: boom}},
			Timing{HasPrelim: true, Prelim: 10 * ms}},
		{"no views",
			[]step{{at: 50 * ms, fail: boom}},
			Timing{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const start = 7 * ms
			clock := &manualClock{now: start}
			c, ctrl := NewScheduled[string](clock, nil)
			for _, s := range tc.steps {
				clock.now = start + s.at
				switch {
				case s.fail != nil:
					_ = ctrl.Fail(s.fail)
				case s.final:
					_ = ctrl.Close(s.value, LevelStrong)
				default:
					_ = ctrl.Update(s.value, LevelWeak)
				}
			}
			if got := TimingOf(c, start); got != tc.want {
				t.Errorf("TimingOf = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestFailed(t *testing.T) {
	boom := errors.New("x")
	f := Failed[any](boom)
	if _, err := f.Final(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Failed: %v", err)
	}
}

func TestFailNilError(t *testing.T) {
	c, ctrl := newOnHost[any]()
	if err := ctrl.Fail(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Final(context.Background()); err == nil {
		t.Error("Fail(nil) should synthesize a non-nil error")
	}
}

func TestConcurrentSubscribersSeeConsistentHistory(t *testing.T) {
	c, ctrl := newOnHost[any]()
	const subs = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	results := make([][]interface{}, subs)
	wg.Add(subs)
	for i := 0; i < subs; i++ {
		i := i
		go func() {
			defer wg.Done()
			c.SetCallbacks(Callbacks[any]{OnUpdate: func(v View[any]) {
				mu.Lock()
				results[i] = append(results[i], v.Value)
				mu.Unlock()
			}})
		}()
	}
	go func() {
		for k := 0; k < 10; k++ {
			_ = ctrl.Update(k, LevelWeak)
		}
		_ = ctrl.Close(10, LevelStrong)
	}()
	wg.Wait()
	if _, err := c.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Give dispatch a moment to finish any tail callbacks attached late.
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < subs; i++ {
		for {
			mu.Lock()
			n := len(results[i])
			mu.Unlock()
			if n == 11 || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		got := append([]interface{}(nil), results[i]...)
		mu.Unlock()
		if len(got) != 11 {
			t.Fatalf("subscriber %d saw %d views, want 11 (%v)", i, len(got), got)
		}
		for k, v := range got {
			if v != k {
				t.Fatalf("subscriber %d: view %d = %v, want %v (in-order delivery)", i, k, v, k)
			}
		}
	}
}

// Property: for any sequence of updates followed by a close, every callback
// sees the values in exactly the delivered order, OnFinal fires exactly
// once, and Views() matches.
func TestPropertyDeliveryOrder(t *testing.T) {
	f := func(vals []int) bool {
		c, ctrl := newOnHost[any]()
		var got []int
		finals := 0
		c.SetCallbacks(Callbacks[any]{
			OnUpdate: func(v View[any]) { got = append(got, v.Value.(int)) },
			OnFinal:  func(View[any]) { finals++ },
		})
		for _, v := range vals {
			if err := ctrl.Update(v, LevelWeak); err != nil {
				return false
			}
		}
		if err := ctrl.Close(-1, LevelStrong); err != nil {
			return false
		}
		if finals != 1 {
			return false
		}
		if len(got) != len(vals)+1 {
			return false
		}
		for i, v := range vals {
			if got[i] != v {
				return false
			}
		}
		if got[len(got)-1] != -1 {
			return false
		}
		// Views() agrees and the last view is the only final one.
		vs := c.Views()
		if len(vs) != len(vals)+1 {
			return false
		}
		for i, v := range vs {
			if v.Index != i || v.Final != (i == len(vs)-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: exactly one terminal transition wins under concurrency.
func TestPropertySingleTerminalTransition(t *testing.T) {
	f := func(n uint8) bool {
		workers := int(n%8) + 2
		c, ctrl := newOnHost[any]()
		var wins int32
		var mu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			i := i
			go func() {
				defer wg.Done()
				var err error
				if i%2 == 0 {
					err = ctrl.Close(i, LevelStrong)
				} else {
					err = ctrl.Fail(errors.New("e"))
				}
				if err == nil {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return wins == 1 && c.State() != StateUpdating
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValuesEqual(t *testing.T) {
	if !ValuesEqual([]byte{1, 2}, []byte{1, 2}) {
		t.Error("equal byte slices reported unequal")
	}
	if ValuesEqual([]byte{1}, []byte{2}) {
		t.Error("different byte slices reported equal")
	}
	if !ValuesEqual[any](nil, nil) {
		t.Error("nil values should be equal")
	}
	if ValuesEqual[any]("a", 1) {
		t.Error("mismatched types reported equal")
	}
}

type evenEqualer int

func (e evenEqualer) EqualValue(other interface{}) bool {
	switch o := other.(type) {
	case evenEqualer:
		return int(e)%2 == int(o)%2
	case int:
		return int(e)%2 == o%2
	default:
		return false
	}
}

func TestValuesEqualCustomEqualer(t *testing.T) {
	if !ValuesEqual[any](evenEqualer(2), evenEqualer(4)) {
		t.Error("custom equaler not consulted (a)")
	}
	if ValuesEqual[any](evenEqualer(1), evenEqualer(4)) {
		t.Error("custom equaler mismatch not detected")
	}
	if !ValuesEqual[any](4, evenEqualer(2)) {
		t.Error("custom equaler not consulted on second operand")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateUpdating: "updating",
		StateFinal:    "final",
		StateError:    "error",
		State(9):      "state(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
