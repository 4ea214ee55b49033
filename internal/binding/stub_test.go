package binding

import (
	"context"
	"sync"
	"time"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// hostScheduler runs Correctables on host goroutines and channels, for the
// stub bindings that answer synchronously, from goroutines of their own,
// or not at all, with no simulated substrate underneath.
type hostScheduler struct{}

// hostEpoch anchors hostScheduler's time axis.
var hostEpoch = time.Now()

func (hostScheduler) Go(fn func())                     { go fn() }
func (hostScheduler) NewEvent() core.Event             { return &hostEvent{ch: make(chan struct{})} }
func (hostScheduler) After(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
func (hostScheduler) Now() time.Duration               { return time.Since(hostEpoch) }

// hostEvent is hostScheduler's Event: a channel closed once.
type hostEvent struct {
	once sync.Once
	ch   chan struct{}
}

func (e *hostEvent) Fire() { e.once.Do(func() { close(e.ch) }) }
func (e *hostEvent) Wait() { <-e.ch }

// onHost, embedded in a stub binding, runs its Correctables on
// hostScheduler.
type onHost struct{}

func (onHost) Scheduler() core.Scheduler { return hostScheduler{} }

// syncBinding answers synchronously from a pre-boxed value, isolating the
// client library's own allocations: everything the allocation gates observe
// is invoke-path overhead, not storage work (untagged file: the race suite
// needs it too).
type syncBinding struct {
	onHost
	levels core.Levels
	value  any // pre-boxed []byte, so wire boxing is not attributed to either path
}

func (s *syncBinding) ConsistencyLevels() core.Levels { return s.levels }

func (s *syncBinding) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	for _, l := range levels {
		cb(Result{Value: s.value, Level: l})
	}
}

func newSyncBinding() *syncBinding {
	return &syncBinding{
		levels: core.Levels{core.LevelWeak, core.LevelStrong},
		value:  []byte("payload"),
	}
}

// clocked runs a test binding on a netsim clock, the way the shipped
// bindings run on their substrate's.
type clocked struct {
	Binding
	clock netsim.Clock
}

func (b clocked) Scheduler() core.Scheduler { return SchedulerFor(b.clock) }
