package binding

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/netsim"
)

// versionedStore is a deterministic in-memory versioned binding: a map of
// LWW registers whose weak views are served from a configurable "stale
// replica" that lags the committed state by `lag` versions, exactly the
// shape session guarantees exist to paper over. Callbacks run
// synchronously, so tests need no synchronization.
type versionedStore struct {
	mu          sync.Mutex
	version     map[string]uint64
	value       map[string][]byte
	history     map[string][][]byte // value per version (index version-1)
	lag         int                 // weak views trail the newest version by lag
	heal        bool                // when set, reads heal: lag collapses after one retry
	staleFinals int                 // serve this many strong views one version behind
	reads       int
}

func newVersionedStore() *versionedStore {
	return &versionedStore{
		version: map[string]uint64{},
		value:   map[string][]byte{},
		history: map[string][][]byte{},
	}
}

func (s *versionedStore) ConsistencyLevels() core.Levels {
	return core.Levels{core.LevelWeak, core.LevelStrong}
}
func (s *versionedStore) Close() error { return nil }

func (s *versionedStore) staleView(key string) (uint64, []byte) {
	v := s.version[key]
	back := uint64(s.lag)
	if back > v {
		back = v
	}
	sv := v - back
	if sv == 0 {
		return 0, nil
	}
	return sv, s.history[key][sv-1]
}

func (s *versionedStore) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	// Compute results under the lock, deliver after releasing it: a session
	// retry re-enters SubmitOperation from inside the callback.
	var results []Result
	s.mu.Lock()
	switch o := op.(type) {
	case Put:
		s.version[o.Key]++
		s.value[o.Key] = o.Value
		s.history[o.Key] = append(s.history[o.Key], o.Value)
		results = append(results, Result{Level: levels.Strongest(), Version: s.version[o.Key]})
	case Get:
		s.reads++
		if s.heal && s.reads > 1 {
			s.lag = 0
		}
		strong := func(key string) Result {
			v, val := s.version[key], s.value[key]
			if s.staleFinals > 0 && v > 1 {
				s.staleFinals--
				v--
				val = s.history[key][v-1]
			}
			return Result{Value: val, Level: core.LevelStrong, Version: v}
		}
		switch {
		case levels.Contains(core.LevelWeak) && levels.Contains(core.LevelStrong):
			sv, sval := s.staleView(o.Key)
			results = append(results,
				Result{Value: sval, Level: core.LevelWeak, Version: sv},
				strong(o.Key))
		case levels.Strongest() == core.LevelStrong:
			results = append(results, strong(o.Key))
		default:
			sv, sval := s.staleView(o.Key)
			results = append(results, Result{Value: sval, Level: core.LevelWeak, Version: sv})
		}
	default:
		results = append(results, Result{Err: fmt.Errorf("%w: %s", ErrUnsupportedOperation, op.OpName())})
	}
	s.mu.Unlock()
	for _, r := range results {
		cb(r)
	}
}

func TestSessionSuppressesStalePreliminary(t *testing.T) {
	st := newVersionedStore()
	st.lag = 1
	s := NewSession(NewClient(st))
	ctx := context.Background()

	if _, err := s.Put(ctx, "k", []byte("v1")).Final(ctx); err != nil {
		t.Fatal(err)
	}
	// The weak view lags (version 0 < floor 1): the session must suppress
	// it, delivering only the strong view.
	cor := s.Get(ctx, "k")
	v, err := cor.Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "v1" || v.Level != core.LevelStrong {
		t.Fatalf("final = %+v", v)
	}
	if views := cor.Views(); len(views) != 1 {
		t.Errorf("views = %+v, want the stale preliminary suppressed", views)
	}
	// A plain (non-session) invoke over the same client still sees the
	// stale preliminary — the guarantee is the session's, not the client's.
	cor = Invoke[[]byte](ctx, s.c, Get{Key: "k"})
	if _, err := cor.Final(ctx); err != nil {
		t.Fatal(err)
	}
	if views := cor.Views(); len(views) != 2 {
		t.Errorf("plain invoke views = %+v, want both", views)
	}
}

func TestSessionRetriesStaleWeakFinal(t *testing.T) {
	st := newVersionedStore()
	st.lag = 1
	st.heal = true // second read observes the healed replica
	s := NewSession(NewClient(st))
	ctx := context.Background()

	if _, err := s.Put(ctx, "k", []byte("v1")).Final(ctx); err != nil {
		t.Fatal(err)
	}
	// Weak-only read: the single view is final; staleness forces a retry,
	// which the healed replica satisfies — read-your-writes via retry.
	v, err := s.GetWeak(ctx, "k").Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "v1" {
		t.Fatalf("weak read after write = %q, want v1", v.Value)
	}
	if st.reads != 2 {
		t.Errorf("reads = %d, want 2 (one retry)", st.reads)
	}
}

func TestSessionRetryDoesNotDuplicateWeakerViews(t *testing.T) {
	st := newVersionedStore()
	s := NewSession(NewClient(st))
	ctx := context.Background()

	if _, err := s.Put(ctx, "k", []byte("v1")).Final(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ctx, "k", []byte("v2")).Final(ctx); err != nil {
		t.Fatal(err)
	}
	// ICG read: the weak view is fresh (delivered), but the first strong
	// final is served one version behind the floor, forcing a retry. The
	// retry must re-execute at the strongest level only: exactly one weak
	// and one strong view reach the application.
	st.staleFinals = 1
	cor := s.Get(ctx, "k")
	v, err := cor.Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "v2" {
		t.Fatalf("final = %+v, want the fresh v2", v)
	}
	views := cor.Views()
	if len(views) != 2 || views[0].Level != core.LevelWeak || views[1].Level != core.LevelStrong {
		t.Fatalf("views = %+v, want exactly [weak, strong] (no duplicated weak view from the retry)", views)
	}
}

func TestSessionFailsAfterRetriesExhausted(t *testing.T) {
	st := newVersionedStore()
	st.lag = 1 // permanently stale, never heals
	s := NewSession(NewClient(st))
	ctx := context.Background()

	if _, err := s.Put(ctx, "k", []byte("v1")).Final(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := s.GetWeak(ctx, "k").Final(ctx)
	if !errors.Is(err, ErrSessionGuarantee) {
		t.Fatalf("err = %v, want ErrSessionGuarantee", err)
	}
	if want := 1 + sessionRetries; st.reads != want {
		t.Errorf("reads = %d, want %d (every retry spent)", st.reads, want)
	}
}

func TestSessionMonotonicReadsAcrossOperations(t *testing.T) {
	st := newVersionedStore()
	s := NewSession(NewClient(st))
	ctx := context.Background()

	// Another writer (not this session) advances the store; the session
	// reads the new version...
	if _, err := Invoke[Ack](ctx, s.c, Put{Key: "k", Value: []byte("v1")}).Final(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "k").Final(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Floor("k"); got != 1 {
		t.Fatalf("floor after read = %d, want 1", got)
	}
	// ...then the replica regresses far enough that its weak view (version
	// 0, before the session's first observation) would violate monotonic
	// reads. A later session read must suppress it: only the strong view
	// is delivered.
	st.lag = 2
	if _, err := Invoke[Ack](ctx, s.c, Put{Key: "k", Value: []byte("v2")}).Final(ctx); err != nil {
		t.Fatal(err)
	}
	cor := s.Get(ctx, "k")
	if _, err := cor.Final(ctx); err != nil {
		t.Fatal(err)
	}
	views := cor.Views()
	if len(views) != 1 || !views[0].Final || string(views[0].Value) != "v2" {
		t.Fatalf("views = %+v, want only the strong view (regressed preliminary suppressed)", views)
	}
	if got := s.Floor("k"); got != 2 {
		t.Errorf("floor after second read = %d, want 2", got)
	}
}

// TestSessionUnkeyedAndUnversionedPassThrough: the plain fake binding stamps
// no version tokens (every view carries 0), so every floor stays at 0 and a
// session over it delivers each view exactly like the bare client — on the
// second read of a key as on the first. An unkeyed operation bypasses the
// floors altogether.
func TestSessionUnkeyedAndUnversionedPassThrough(t *testing.T) {
	c := NewClient(newFake())
	s := NewSession(c)
	ctx := context.Background()
	for _, key := range []string{"k", "k", ""} {
		cor := SessionInvoke[[]byte](ctx, s, Get{Key: key})
		if v, err := cor.Final(ctx); err != nil || string(v.Value) != "strong:"+key {
			t.Fatalf("pass-through session invoke of %q = %+v, %v", key, v, err)
		}
		if len(cor.Views()) != 2 {
			t.Errorf("views of %q = %d, want 2", key, len(cor.Views()))
		}
	}
	if got := s.Floor("k"); got != 0 {
		t.Errorf("floor on unversioned binding = %d, want 0", got)
	}
}

// recordingObserver collects the full event stream.
type recordingObserver struct {
	mu     sync.Mutex
	events []string
}

func (r *recordingObserver) OpStart(op OpInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, fmt.Sprintf("start %s %s/%s #%d", op.Client, op.Name, op.Key, op.ID))
}

func (r *recordingObserver) OpView(op OpInfo, v OpView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, fmt.Sprintf("view %s/%s %v v%d final=%v", op.Name, op.Key, v.Level, v.Version, v.Final))
}

func (r *recordingObserver) OpEnd(op OpInfo, at time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	outcome := "ok"
	if err != nil {
		outcome = "err"
	}
	r.events = append(r.events, fmt.Sprintf("end %s/%s %s", op.Name, op.Key, outcome))
}

func (r *recordingObserver) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

func TestObserverSeesFullEventStream(t *testing.T) {
	obs := &recordingObserver{}
	st := newVersionedStore()
	c := NewClient(st, WithObserver(obs), WithLabel("alice"))
	ctx := context.Background()

	if _, err := Invoke[Ack](ctx, c, Put{Key: "k", Value: []byte("v")}).Final(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Invoke[[]byte](ctx, c, Get{Key: "k"}).Final(ctx); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"start alice put/k #1",
		"view put/k strong v1 final=true",
		"end put/k ok",
		"start alice get/k #2",
		"view get/k weak v1 final=false",
		"view get/k strong v1 final=true",
		"end get/k ok",
	}
	got := obs.snapshot()
	if len(got) != len(want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestObserverSeesErrorEnd(t *testing.T) {
	obs := &recordingObserver{}
	c := NewClient(newFake(), WithObserver(obs))
	ctx := context.Background()
	if _, err := Invoke[Item](ctx, c, Enqueue{Queue: "q", Item: []byte("x")}).Final(ctx); err == nil {
		t.Fatal("want unsupported-operation error")
	}
	got := obs.snapshot()
	if len(got) != 2 || got[1] != "end enqueue/q err" {
		t.Errorf("events = %q, want start + error end", got)
	}
}

// stallBinding never answers: for exercising the client-level op timeout.
type stallBinding struct{}

func (stallBinding) ConsistencyLevels() core.Levels { return core.Levels{core.LevelStrong} }
func (stallBinding) Close() error                   { return nil }
func (stallBinding) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
}

func TestWithOpTimeoutBoundsStalledOperation(t *testing.T) {
	obs := &recordingObserver{}
	c := NewClient(stallBinding{}, WithOpTimeout(20*time.Millisecond), WithObserver(obs))
	start := time.Now()
	_, err := InvokeStrong[[]byte](context.Background(), c, Get{Key: "k"}).Final(context.Background())
	if !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The timer goroutine fails the Correctable first and emits OpEnd right
	// after, so Final can return a moment before the end event is recorded.
	got := obs.snapshot()
	for deadline := time.Now().Add(2 * time.Second); len(got) < 2 && time.Now().Before(deadline); got = obs.snapshot() {
		time.Sleep(time.Millisecond)
	}
	if len(got) != 2 || got[1] != "end get/k err" {
		t.Errorf("events = %q, want start + timeout end", got)
	}
}

// lateBinding answers only when the test says so, through the callback it
// kept.
type lateBinding struct {
	stallBinding
	answer *Callback
}

func (b lateBinding) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	*b.answer = cb
}

// TestLateViewsRefusedAfterTimeout: an invocation the timeout failed is
// abandoned, not cancelled — the binding's protocol work runs on and its
// answer still arrives. The closed Correctable must refuse it: no view, no
// second end event.
func TestLateViewsRefusedAfterTimeout(t *testing.T) {
	clock := netsim.NewVirtualClock()
	obs := &recordingObserver{}
	var answer Callback
	c := NewClient(clocked{lateBinding{answer: &answer}, clock},
		WithOpTimeout(time.Second), WithObserver(obs))
	cor := InvokeStrong[[]byte](context.Background(), c, Get{Key: "k"})
	if _, err := cor.Final(context.Background()); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if now := clock.Now(); now != time.Second {
		t.Errorf("timed out at %v of model time, want the 1s bound", now)
	}
	answer(Result{Value: []byte("late"), Level: core.LevelStrong})
	if st, views := cor.State(), cor.Views(); st != core.StateError || len(views) != 0 {
		t.Errorf("after the late answer: state %v, views %v; want the error to stand and no view", st, views)
	}
	if got := obs.snapshot(); len(got) != 2 || got[1] != "end get/k err" {
		t.Errorf("events = %q, want start + timeout end and nothing after", got)
	}
	clock.Drain()
}

// timeoutBinding advertises a default operation bound that can change
// after construction (the shipped bindings flip from 0 to the store
// OpTimeout when a fault injector attaches to the transport).
type timeoutBinding struct {
	stallBinding
	d *time.Duration
}

func (b timeoutBinding) DefaultOpTimeout() time.Duration { return *b.d }

func TestBindingDefaultOpTimeoutAndOverride(t *testing.T) {
	d := 15 * time.Millisecond
	c := NewClient(timeoutBinding{d: &d})
	if got := c.OpTimeout(); got != 15*time.Millisecond {
		t.Fatalf("resolved timeout = %v, want the binding default", got)
	}
	if _, err := InvokeStrong[[]byte](context.Background(), c, Get{Key: "k"}).Final(context.Background()); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable from the binding default", err)
	}
	// WithOpTimeout(0) disables the binding default entirely.
	c = NewClient(timeoutBinding{d: &d}, WithOpTimeout(0))
	if got := c.OpTimeout(); got != 0 {
		t.Errorf("override timeout = %v, want 0", got)
	}
}

// TestTimeoutResolvedPerInvocation: a fault injector attached AFTER client
// construction must still bound operations — the binding default is
// consulted per invocation, not frozen at NewClient.
func TestTimeoutResolvedPerInvocation(t *testing.T) {
	d := time.Duration(0) // construction time: unbounded (no injector yet)
	c := NewClient(timeoutBinding{d: &d})
	if got := c.OpTimeout(); got != 0 {
		t.Fatalf("timeout before attach = %v, want 0", got)
	}
	d = 15 * time.Millisecond // the injector attached; the bound appears
	if got := c.OpTimeout(); got != 15*time.Millisecond {
		t.Fatalf("timeout after attach = %v, want the new binding default", got)
	}
	if _, err := InvokeStrong[[]byte](context.Background(), c, Get{Key: "k"}).Final(context.Background()); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable via the late-attached bound", err)
	}
}

func TestKeyedOperationMetadata(t *testing.T) {
	cases := []struct {
		op       Operation
		key      string
		mutating bool
	}{
		{Get{Key: "k"}, "k", false},
		{Put{Key: "k"}, "k", true},
		{Enqueue{Queue: "q"}, "q", true},
		{Dequeue{Queue: "q"}, "q", true},
	}
	for _, tc := range cases {
		if got := tc.op.OpKey(); got != tc.key {
			t.Errorf("%s OpKey = %q, want %q", tc.op.OpName(), got, tc.key)
		}
		if got := tc.op.OpMutates(); got != tc.mutating {
			t.Errorf("%s OpMutates = %v, want %v", tc.op.OpName(), got, tc.mutating)
		}
	}
}
