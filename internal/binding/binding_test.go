package binding

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"correctables/internal/core"
)

// fakeBinding is a deterministic in-memory binding for exercising the
// client wiring: it answers Get with "<level>:<key>" bytes at each
// requested level, in order, optionally with a delay between levels.
type fakeBinding struct {
	levels core.Levels
	delay  time.Duration
	mu     sync.Mutex
	calls  []core.Levels
}

func (f *fakeBinding) ConsistencyLevels() core.Levels { return f.levels }

func (f *fakeBinding) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	f.mu.Lock()
	f.calls = append(f.calls, levels)
	f.mu.Unlock()
	go func() {
		get, ok := op.(Get)
		if !ok {
			cb(Result{Err: fmt.Errorf("%w: %s", ErrUnsupportedOperation, op.OpName())})
			return
		}
		for _, l := range levels {
			time.Sleep(f.delay)
			cb(Result{Value: []byte(fmt.Sprintf("%s:%s", l, get.Key)), Level: l})
		}
	}()
}

func (f *fakeBinding) Close() error { return nil }

func newFake() *fakeBinding {
	return &fakeBinding{levels: core.Levels{core.LevelWeak, core.LevelStrong}}
}

func TestInvokeDeliversAllLevelsInOrder(t *testing.T) {
	c := NewClient(newFake())
	cor := Invoke[[]byte](context.Background(), c, Get{Key: "k"})
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "strong:k" || v.Level != core.LevelStrong {
		t.Errorf("final = %+v", v)
	}
	views := cor.Views()
	if len(views) != 2 {
		t.Fatalf("views = %v", views)
	}
	if string(views[0].Value) != "weak:k" || views[0].Level != core.LevelWeak || views[0].Final {
		t.Errorf("view[0] = %+v", views[0])
	}
}

func TestInvokeWeakSingleView(t *testing.T) {
	fb := newFake()
	c := NewClient(fb)
	cor := InvokeWeak[[]byte](context.Background(), c, Get{Key: "k"})
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "weak:k" || v.Level != core.LevelWeak || !v.Final {
		t.Errorf("final = %+v", v)
	}
	if len(cor.Views()) != 1 {
		t.Errorf("InvokeWeak delivered %d views, want 1", len(cor.Views()))
	}
	// The binding was asked for only the weak level, so it can avoid the
	// extraneous work (§3.2).
	if len(fb.calls) != 1 || len(fb.calls[0]) != 1 || fb.calls[0][0] != core.LevelWeak {
		t.Errorf("binding received levels %v, want [weak]", fb.calls)
	}
}

func TestInvokeStrongSingleView(t *testing.T) {
	c := NewClient(newFake())
	cor := InvokeStrong[[]byte](context.Background(), c, Get{Key: "x"})
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "strong:x" || v.Level != core.LevelStrong {
		t.Errorf("final = %+v", v)
	}
	if len(cor.Views()) != 1 {
		t.Errorf("InvokeStrong delivered %d views, want 1", len(cor.Views()))
	}
}

func TestInvokeLevelSubset(t *testing.T) {
	fb := &fakeBinding{levels: core.Levels{core.LevelCache, core.LevelWeak, core.LevelStrong}}
	c := NewClient(fb)
	cor := Invoke[[]byte](context.Background(), c, Get{Key: "k"}, core.LevelCache, core.LevelStrong)
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Level != core.LevelStrong {
		t.Errorf("final level = %v", v.Level)
	}
	views := cor.Views()
	if len(views) != 2 || views[0].Level != core.LevelCache {
		t.Errorf("views = %+v", views)
	}
}

func TestInvokeUnsupportedLevelFails(t *testing.T) {
	c := NewClient(newFake())
	cor := Invoke[[]byte](context.Background(), c, Get{Key: "k"}, core.LevelCausal)
	if _, err := cor.Final(context.Background()); !errors.Is(err, ErrUnsupportedLevel) {
		t.Errorf("err = %v, want ErrUnsupportedLevel", err)
	}
}

func TestInvokeUnsupportedOperationFails(t *testing.T) {
	c := NewClient(newFake())
	cor := Invoke[Item](context.Background(), c, Enqueue{Queue: "q", Item: []byte("x")})
	if _, err := cor.Final(context.Background()); !errors.Is(err, ErrUnsupportedOperation) {
		t.Errorf("err = %v, want ErrUnsupportedOperation", err)
	}
}

func TestInvokeContextCancellation(t *testing.T) {
	fb := newFake()
	fb.delay = time.Second
	c := NewClient(fb)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	cor := Invoke[[]byte](ctx, c, Get{Key: "k"})
	if _, err := cor.Final(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestEmptyLevelsBinding(t *testing.T) {
	c := NewClient(&fakeBinding{})
	if _, err := InvokeWeak[[]byte](context.Background(), c, Get{Key: "k"}).Final(context.Background()); !errors.Is(err, ErrUnsupportedLevel) {
		t.Errorf("InvokeWeak on empty binding: %v", err)
	}
	if _, err := InvokeStrong[[]byte](context.Background(), c, Get{Key: "k"}).Final(context.Background()); !errors.Is(err, ErrUnsupportedLevel) {
		t.Errorf("InvokeStrong on empty binding: %v", err)
	}
	if _, err := Invoke[[]byte](context.Background(), c, Get{Key: "k"}).Final(context.Background()); !errors.Is(err, ErrUnsupportedLevel) {
		t.Errorf("Invoke on empty binding: %v", err)
	}
}

func TestOperationNames(t *testing.T) {
	cases := map[string]Operation{
		"get":     Get{},
		"put":     Put{},
		"enqueue": Enqueue{},
		"dequeue": Dequeue{},
	}
	for want, op := range cases {
		if got := op.OpName(); got != want {
			t.Errorf("OpName = %q, want %q", got, want)
		}
	}
}

// TestTypedResultDecodeMismatch: a binding delivering an unexpected wire
// type fails the typed Correctable instead of panicking.
type wrongTypeBinding struct{ fakeBinding }

func (w *wrongTypeBinding) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	go cb(Result{Value: 42, Level: levels.Strongest()})
}

func TestTypedResultDecodeMismatch(t *testing.T) {
	c := NewClient(&wrongTypeBinding{fakeBinding{levels: core.Levels{core.LevelStrong}}})
	if _, err := InvokeStrong[[]byte](context.Background(), c, Get{Key: "k"}).Final(context.Background()); err == nil {
		t.Error("decode mismatch did not fail the correctable")
	}
}

// TestNoGoroutinePerInvoke: the cancellation watcher must not burn a
// goroutine per in-flight operation (context.AfterFunc-based).
func TestNoGoroutinePerInvoke(t *testing.T) {
	fb := newFake()
	fb.delay = 50 * time.Millisecond
	c := NewClient(fb)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtimeNumGoroutine()
	var cors []*core.Correctable[[]byte]
	const n = 64
	for i := 0; i < n; i++ {
		cors = append(cors, Invoke[[]byte](ctx, c, Get{Key: "k"}))
	}
	// The fake binding spawns one goroutine per submission; anything well
	// below 2n means no extra per-invoke watcher goroutine exists.
	during := runtimeNumGoroutine()
	if during-before > n+8 {
		t.Errorf("goroutines grew by %d for %d invokes; per-invoke watcher goroutine suspected", during-before, n)
	}
	for _, cor := range cors {
		if _, err := cor.Final(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func runtimeNumGoroutine() int { return runtime.NumGoroutine() }
