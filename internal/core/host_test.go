package core

import (
	"sync"
	"time"
)

// hostScheduler runs Correctables on host goroutines and channels, for the
// tests that drive one without a simulated substrate: producers on
// goroutines of their own, speculations that sleep in host time.
type hostScheduler struct{}

// hostEpoch anchors hostScheduler's time axis.
var hostEpoch = time.Now()

func (hostScheduler) Go(fn func())       { go fn() }
func (hostScheduler) NewEvent() Event    { return &hostEvent{ch: make(chan struct{})} }
func (hostScheduler) Now() time.Duration { return time.Since(hostEpoch) }
func (hostScheduler) Stop(t *Timer) bool { return false }

// After is never called: the client library arms deadlines, and core's
// tests drive Correctables without it.
func (hostScheduler) After(time.Duration, *Timer, Alarm) {
	panic("core: hostScheduler arms no timers")
}

// hostEvent is hostScheduler's Event: a channel closed once.
type hostEvent struct {
	once sync.Once
	ch   chan struct{}
}

func (e *hostEvent) Fire() { e.once.Do(func() { close(e.ch) }) }
func (e *hostEvent) Wait() { <-e.ch }

// newOnHost creates a Correctable on hostScheduler.
func newOnHost[T any]() (*Correctable[T], Controller[T]) {
	return NewScheduled[T](hostScheduler{}, nil)
}
