package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSpeculateConfirmation(t *testing.T) {
	// Preliminary == final: speculation is confirmed, spec runs once, no
	// abort, result is the spec output at strong level.
	c, ctrl := newOnHost[any]()
	var specRuns, aborts int32
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		atomic.AddInt32(&specRuns, 1)
		return fmt.Sprintf("spec(%v)", v.Value), nil
	}, func(View[any], interface{}) {
		atomic.AddInt32(&aborts, 1)
	})
	_ = ctrl.Update("x", LevelWeak)
	_ = ctrl.Close("x", LevelStrong)
	v, err := out.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != "spec(x)" {
		t.Errorf("result = %v, want spec(x)", v.Value)
	}
	if v.Level != LevelStrong {
		t.Errorf("level = %v, want strong", v.Level)
	}
	if got := atomic.LoadInt32(&specRuns); got != 1 {
		t.Errorf("spec ran %d times, want 1", got)
	}
	if got := atomic.LoadInt32(&aborts); got != 0 {
		t.Errorf("abort ran %d times, want 0", got)
	}
}

func TestSpeculateMisspeculation(t *testing.T) {
	// Preliminary != final: spec re-executes on the final value, abort undoes
	// the preliminary speculation first.
	c, ctrl := newOnHost[any]()
	var mu sync.Mutex
	var trace []string
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		mu.Lock()
		trace = append(trace, "spec:"+v.Value.(string))
		mu.Unlock()
		return "r:" + v.Value.(string), nil
	}, func(in View[any], res interface{}) {
		mu.Lock()
		trace = append(trace, fmt.Sprintf("abort:%v", res))
		mu.Unlock()
	})
	_ = ctrl.Update("stale", LevelWeak)
	_ = ctrl.Close("fresh", LevelStrong)
	v, err := out.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != "r:fresh" {
		t.Errorf("result = %v, want r:fresh", v.Value)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"spec:stale", "abort:r:stale", "spec:fresh"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSpeculateHidesLatency(t *testing.T) {
	// The point of the paper: with a correct preliminary, the overall
	// latency is max(finalLatency, prelimLatency+specTime), not
	// finalLatency+specTime.
	const (
		prelimAt = 5 * time.Millisecond
		finalAt  = 60 * time.Millisecond
		specCost = 40 * time.Millisecond
	)
	c, ctrl := newOnHost[any]()
	start := time.Now()
	go func() {
		time.Sleep(prelimAt)
		_ = ctrl.Update("v", LevelWeak)
		time.Sleep(finalAt - prelimAt)
		_ = ctrl.Close("v", LevelStrong)
	}()
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		time.Sleep(specCost)
		return "done", nil
	}, nil)
	if _, err := out.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Sequential execution would need finalAt+specCost = 100ms. Speculative
	// should finish around finalAt = 60ms. Use a generous margin for CI.
	if elapsed > finalAt+specCost-10*time.Millisecond {
		t.Errorf("speculation did not overlap: took %v, sequential would be %v", elapsed, finalAt+specCost)
	}
}

func TestSpeculateFinalOnly(t *testing.T) {
	// No preliminary at all: spec runs once, on the final view.
	c, ctrl := newOnHost[any]()
	var runs int32
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		atomic.AddInt32(&runs, 1)
		return v.Value, nil
	}, nil)
	_ = ctrl.Close(7, LevelStrong)
	v, err := out.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != 7 || atomic.LoadInt32(&runs) != 1 {
		t.Errorf("value=%v runs=%d", v.Value, runs)
	}
}

func TestSpeculateDuplicatePreliminarySkipped(t *testing.T) {
	// Per Listing 3: spec applies to every new view *if it differs from the
	// previous one*.
	c, ctrl := newOnHost[any]()
	var runs int32
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		atomic.AddInt32(&runs, 1)
		return v.Value, nil
	}, nil)
	_ = ctrl.Update("same", LevelCache)
	_ = ctrl.Update("same", LevelWeak)
	_ = ctrl.Close("same", LevelStrong)
	if _, err := out.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Errorf("spec ran %d times, want 1", got)
	}
}

func TestSpeculateSpecError(t *testing.T) {
	c, ctrl := newOnHost[any]()
	boom := errors.New("spec failed")
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		return nil, boom
	}, nil)
	_ = ctrl.Close("x", LevelStrong)
	if _, err := out.Final(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Final = %v, want %v", err, boom)
	}
}

func TestSpeculatePrelimSpecErrorThenFinalOK(t *testing.T) {
	// A failing speculation on the preliminary must not poison the result if
	// the final diverges and re-executes successfully.
	c, ctrl := newOnHost[any]()
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		if v.Value == "bad" {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}, nil)
	_ = ctrl.Update("bad", LevelWeak)
	_ = ctrl.Close("good", LevelStrong)
	v, err := out.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != "ok" {
		t.Errorf("result = %v", v.Value)
	}
}

func TestSpeculateConfirmedPrelimSpecError(t *testing.T) {
	// Spec errors on the preliminary, and the final confirms the
	// preliminary: the error is the result (re-running would fail again on
	// identical input).
	c, ctrl := newOnHost[any]()
	boom := errors.New("boom")
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		return nil, boom
	}, nil)
	_ = ctrl.Update("x", LevelWeak)
	time.Sleep(5 * time.Millisecond) // let spec finish
	_ = ctrl.Close("x", LevelStrong)
	if _, err := out.Final(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Final err = %v, want %v", err, boom)
	}
}

func TestSpeculateSourceError(t *testing.T) {
	c, ctrl := newOnHost[any]()
	boom := errors.New("storage down")
	var aborted int32
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		return v.Value, nil
	}, func(View[any], interface{}) { atomic.AddInt32(&aborted, 1) })
	_ = ctrl.Update("x", LevelWeak)
	time.Sleep(5 * time.Millisecond)
	_ = ctrl.Fail(boom)
	if _, err := out.Final(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Final = %v, want %v", err, boom)
	}
	// The outstanding speculation gets aborted (asynchronously).
	deadline := time.Now().Add(time.Second)
	for atomic.LoadInt32(&aborted) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if atomic.LoadInt32(&aborted) != 1 {
		t.Error("outstanding speculation was not aborted after source error")
	}
}

func TestSpeculatePreliminaryResultDelivered(t *testing.T) {
	c, ctrl := newOnHost[any]()
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		return "spec:" + v.Value.(string), nil
	}, nil)
	var mu sync.Mutex
	var prelim []interface{}
	out.OnUpdate(func(v View[any]) {
		mu.Lock()
		if !v.Final {
			prelim = append(prelim, v.Value)
		}
		mu.Unlock()
	})
	_ = ctrl.Update("a", LevelWeak)
	// Wait until the preliminary speculation result has propagated.
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n := len(prelim)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_ = ctrl.Close("a", LevelStrong)
	if _, err := out.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(prelim) != 1 || prelim[0] != "spec:a" {
		t.Errorf("preliminary spec results = %v, want [spec:a]", prelim)
	}
}

func TestSpeculateMultiplePreliminaries(t *testing.T) {
	// Several distinct preliminary views: each superseded speculation is
	// aborted exactly once, in order, before its successor runs.
	c, ctrl := newOnHost[any]()
	var mu sync.Mutex
	var aborted []interface{}
	out := Speculate(c, func(v View[any]) (interface{}, error) {
		return v.Value, nil
	}, func(in View[any], res interface{}) {
		mu.Lock()
		aborted = append(aborted, in.Value)
		mu.Unlock()
	})
	_ = ctrl.Update(1, LevelCache)
	_ = ctrl.Update(2, LevelWeak)
	_ = ctrl.Update(3, LevelCausal)
	_ = ctrl.Close(3, LevelStrong)
	v, err := out.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != 3 {
		t.Errorf("final = %v, want 3", v.Value)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(aborted) != 2 || aborted[0] != 1 || aborted[1] != 2 {
		t.Errorf("aborted = %v, want [1 2]", aborted)
	}
}

// Property: regardless of whether the preliminary matches the final, the
// Speculate result always equals spec(finalValue), and abort is called iff
// the preliminary diverged (when spec is pure).
func TestPropertySpeculateReflectsFinal(t *testing.T) {
	f := func(prelim, final uint8) bool {
		c, ctrl := newOnHost[any]()
		var aborts int32
		out := Speculate(c, func(v View[any]) (interface{}, error) {
			return int(v.Value.(uint8)) * 2, nil
		}, func(View[any], interface{}) { atomic.AddInt32(&aborts, 1) })
		_ = ctrl.Update(prelim, LevelWeak)
		_ = ctrl.Close(final, LevelStrong)
		v, err := out.Final(context.Background())
		if err != nil {
			return false
		}
		if v.Value.(int) != int(final)*2 {
			return false
		}
		wantAborts := int32(0)
		if prelim != final {
			wantAborts = 1
		}
		// Abort runs before the re-executed spec completes, which happens
		// before Final returns, so the count is settled here.
		return atomic.LoadInt32(&aborts) == wantAborts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
