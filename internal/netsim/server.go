package netsim

import (
	"sync"
	"time"

	"correctables/internal/trace"
)

// Server models the finite processing capacity of one storage node. Every
// message handled by the node passes through Process, which reserves one of
// the node's worker slots for the service time. Under load, requests queue
// for a slot, which is what bends the latency/throughput curves of Figure 6
// and caps attainable throughput.
//
// Capacity is tracked with per-slot busy-until deadlines in model time: the
// reservation math is exact and nothing ever sleeps on the host, so
// saturation throughput does not depend on the host's timer resolution.
//
// Preliminary flushing in Correctable Cassandra consumes extra coordinator
// service time per read (§6.2.1 "Performance Under Load"), which is why CC
// saturates slightly earlier than the baseline — call Process once more with
// the flush cost to model it.
type Server struct {
	clock Clock

	// trc, when set, records queue-wait and service spans on trcTrack.
	// Because reservations are exact deadlines, both spans are emitted at
	// reservation time with their true (possibly future) model instants.
	trc      *trace.Tracer
	trcTrack trace.Track

	mu       sync.Mutex
	slotFree []time.Duration // model instant each slot becomes free
	busy     time.Duration   // accumulated model-time service
	handled  int64
}

// NewServer creates a server with the given number of worker slots.
func NewServer(clock Clock, workers int) *Server {
	if workers <= 0 {
		workers = 1
	}
	return &Server{clock: clock, slotFree: make([]time.Duration, workers)}
}

// reserve books the earliest available slot for cost and returns the
// completion deadline (model time).
func (s *Server) reserve(cost time.Duration, now time.Duration) time.Duration {
	s.mu.Lock()
	idx := 0
	for i := 1; i < len(s.slotFree); i++ {
		if s.slotFree[i] < s.slotFree[idx] {
			idx = i
		}
	}
	start := s.slotFree[idx]
	if start < now {
		start = now
	}
	end := start + cost
	s.slotFree[idx] = end
	s.busy += cost
	s.handled++
	s.mu.Unlock()
	return end
}

// SetTrace installs a tracer recording this server's queue/service spans
// on a track with the given name. Install at wiring time.
func (s *Server) SetTrace(trc *trace.Tracer, track string) {
	s.trc = trc
	s.trcTrack = trc.Track(track)
}

// Process occupies a worker slot for the model-time cost, blocking through
// any queueing delay plus the service time itself.
func (s *Server) Process(cost time.Duration) {
	s.clock.SleepUntil(s.Reserve(cost))
}

// Reserve books a worker slot for cost without blocking and returns the
// model instant the reserved work completes; the caller waits for the
// deadline itself, a record by At(Reserve(cost), step).
func (s *Server) Reserve(cost time.Duration) time.Duration {
	now := s.clock.Now()
	end := s.reserve(cost, now)
	if s.trc != nil {
		if start := end - cost; start > now {
			s.trc.Span(s.trcTrack, trace.CatQueue, "wait", "", now, start)
		}
		s.trc.Span(s.trcTrack, trace.CatServer, "serve", "", end-cost, end)
	}
	return end
}

// QueueDelay returns the queueing delay a request arriving now would incur
// before any worker slot frees up (0 when a slot is idle). Because
// reservations are exact per-slot deadlines in model time, this is the
// precise backlog signal — no sampling error — which makes it the natural
// input for queue-delay-threshold admission control (see internal/load).
func (s *Server) QueueDelay() time.Duration {
	now := s.clock.Now()
	s.mu.Lock()
	earliest := s.slotFree[0]
	for _, t := range s.slotFree[1:] {
		if t < earliest {
			earliest = t
		}
	}
	s.mu.Unlock()
	if earliest <= now {
		return 0
	}
	return earliest - now
}

// Handled returns the number of completed Process calls.
func (s *Server) Handled() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handled
}

// BusyModelTime returns the total model time reserved for service.
func (s *Server) BusyModelTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}
