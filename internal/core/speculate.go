package core

import "sync"

// SpecFunc is a speculation function (§4.2, Listing 3). It receives a view
// of the source value type In and performs — possibly expensive, possibly
// side-effecting — work based on it, returning a result of type Out. It
// runs on its own goroutine.
type SpecFunc[In, Out any] func(View[In]) (Out, error)

// AbortFunc undoes the side effects of a superseded speculation. It receives
// the view the speculation was based on and the result it produced (the zero
// Out if the speculation function returned an error). It is called at most
// once per superseded speculation, after that speculation's SpecFunc has
// returned and before the replacement speculation runs.
type AbortFunc[In, Out any] func(input View[In], result Out)

// specExec tracks one execution of the speculation function.
type specExec[In, Out any] struct {
	input View[In]
	done  Event

	// result and err are written by the executing goroutine before done is
	// fired.
	result Out
	err    error

	// The fields below are guarded by speculator.mu.
	completed   bool  // finished() has run and published (or skipped)
	closeOnDone bool  // confirmation arrived: close the output on completion
	closeLevel  Level // level of the confirming final view
}

// Speculate captures the speculation pattern of the paper (Listing 3): it
// applies spec to every new view delivered by c whose value differs from the
// previous one, and returns a new Correctable that closes with the return
// value of spec. spec maps views of In to a result of type Out, which may be
// In itself.
//
// If the final view matches the last speculated-on view (the common case),
// the returned Correctable closes as soon as both the final view has arrived
// and that speculation has finished — the speculation was correct and its
// latency is hidden. Otherwise spec is automatically re-executed with the
// correct (final) input, abort (if non-nil) is called first to undo the
// preceding speculation's side effects, and the returned Correctable closes
// only after the re-execution completes.
//
// Results of speculations on preliminary views are additionally delivered as
// preliminary views of the returned Correctable (at the input view's level),
// so speculation chains compose with OnUpdate-style progressive display.
//
// Divergence between views is judged with ValuesEqual (Equaler[In] when the
// value type implements it).
//
// If c closes with an error, the returned Correctable fails with the same
// error (after any outstanding speculation is aborted).
func Speculate[In, Out any](c *Correctable[In], spec SpecFunc[In, Out], abort AbortFunc[In, Out]) *Correctable[Out] {
	out, ctrl := NewScheduled[Out](c.sched, c.Levels())
	s := &speculator[In, Out]{spec: spec, abort: abort, ctrl: ctrl, sched: c.scheduler()}
	c.SetCallbacks(Callbacks[In]{
		OnUpdate: s.onUpdate,
		OnError:  s.onError,
	})
	return out
}

type speculator[In, Out any] struct {
	mu     sync.Mutex
	spec   SpecFunc[In, Out]
	abort  AbortFunc[In, Out]
	ctrl   Controller[Out]
	sched  Scheduler
	latest *specExec[In, Out]
}

// startLocked launches a speculation for v, superseding (and, once it
// finishes, aborting) the previous one. Caller must hold s.mu.
func (s *speculator[In, Out]) startLocked(v View[In]) {
	prev := s.latest
	e := &specExec[In, Out]{input: v, done: s.sched.NewEvent()}
	s.latest = e
	s.sched.Go(func() {
		if prev != nil {
			s.waitAbort(prev)
		}
		e.result, e.err = s.spec(v)
		e.done.Fire()
		s.finished(e)
	})
}

// waitAbort waits for a superseded execution to finish and undoes its side
// effects.
func (s *speculator[In, Out]) waitAbort(e *specExec[In, Out]) {
	e.done.Wait()
	if s.abort != nil {
		var res Out
		if e.err == nil {
			res = e.result
		}
		s.abort(e.input, res)
	}
}

// finished publishes the outcome of a completed execution.
func (s *speculator[In, Out]) finished(e *specExec[In, Out]) {
	s.mu.Lock()
	e.completed = true
	isLatest := s.latest == e
	closeOnDone := e.closeOnDone
	closeLevel := e.closeLevel
	final := e.input.Final
	s.mu.Unlock()
	if !isLatest {
		return // superseded; the superseding goroutine aborts it
	}
	if final || closeOnDone {
		level := e.input.Level
		if closeOnDone {
			level = closeLevel
		}
		if e.err != nil {
			_ = s.ctrl.Fail(e.err)
		} else {
			_ = s.ctrl.Close(e.result, level)
		}
		return
	}
	if e.err == nil {
		// Preliminary speculation result; best effort (the output may have
		// already closed if the source errored concurrently).
		_ = s.ctrl.Update(e.result, e.input.Level)
	}
}

func (s *speculator[In, Out]) onUpdate(v View[In]) {
	s.mu.Lock()
	prev := s.latest
	sameAsPrev := prev != nil && ValuesEqual(prev.input.Value, v.Value)
	if !v.Final {
		// Speculate only on views whose value differs from the previous one.
		if !sameAsPrev {
			s.startLocked(v)
		}
		s.mu.Unlock()
		return
	}
	if sameAsPrev {
		// Confirmation: the final view matches the speculated-on input.
		if prev.completed {
			s.mu.Unlock()
			if prev.err != nil {
				_ = s.ctrl.Fail(prev.err)
			} else {
				_ = s.ctrl.Close(prev.result, v.Level)
			}
			return
		}
		prev.closeOnDone = true
		prev.closeLevel = v.Level
		s.mu.Unlock()
		return
	}
	// Misspeculation, or no preliminary arrived at all: (re-)execute on the
	// final view; startLocked's goroutine aborts the superseded execution
	// before the re-execution runs.
	s.startLocked(v)
	s.mu.Unlock()
}

func (s *speculator[In, Out]) onError(err error) {
	s.mu.Lock()
	prev := s.latest
	s.latest = nil
	s.mu.Unlock()
	if prev != nil {
		s.sched.Go(func() { s.waitAbort(prev) })
	}
	_ = s.ctrl.Fail(err)
}
