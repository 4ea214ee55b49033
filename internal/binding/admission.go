package binding

import (
	"errors"
	randv2 "math/rand/v2"
	"sync"
	"time"

	"correctables/internal/faults"
)

// AdmissionDecision is an admission gate's verdict on one invocation
// attempt.
type AdmissionDecision uint8

const (
	// AdmissionAdmit lets the attempt through unchanged.
	AdmissionAdmit AdmissionDecision = iota
	// AdmissionDegrade serves a non-mutating attempt at the binding's
	// weakest consistency level only: the Correctable closes with the
	// preliminary view — ICG's cheap degraded mode, cast as load shedding.
	// Mutating operations are never degraded (a write has no weaker
	// half-measure); they are admitted instead.
	AdmissionDegrade
	// AdmissionReject refuses the attempt outright. The gate's error (a
	// typed, usually retryable error such as load.ErrRejected) fails the
	// Correctable — or feeds the client's retry policy, if one is attached.
	AdmissionReject
)

// AdmissionGate decides, per invocation attempt, whether the coordinator
// should do the work at all. The client library consults the gate before
// any protocol work — including before each retry re-submission, so a
// backpressured gate throttles storms at their source. Implementations
// must not block (Admit runs on actor and timer-callback paths) and must
// be safe for concurrent use. See internal/load for the token-bucket +
// AIMD controller shipped with this repository.
type AdmissionGate interface {
	// Admit judges one attempt issued by the labeled client. The error is
	// only consulted for AdmissionReject, where it becomes the attempt's
	// failure.
	Admit(client string, op Operation) (AdmissionDecision, error)
}

// WithAdmission routes every invocation attempt through gate. Several
// clients may share one gate; the client's WithLabel identity is what the
// gate keys per-client state on.
func WithAdmission(gate AdmissionGate) Option {
	return func(c *Client) { c.gate = gate }
}

// errRejectedNoReason covers gates that return AdmissionReject with a nil
// error.
var errRejectedNoReason = errors.New("binding: operation rejected by admission control")

// IsRetryable is the retry classification: an error is worth
// re-submitting if it wraps faults.ErrUnreachable (timeouts, severed
// links) or anything declaring Retryable() true (admission rejections).
// Semantic failures are not retryable.
func IsRetryable(err error) bool {
	if errors.Is(err, faults.ErrUnreachable) {
		return true
	}
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// RetryPolicy configures client-side re-submission of failed invocations —
// deliberately including the pathological configurations: an immediate
// policy (Base 0) under timeouts is exactly the retry amplification that
// sustains metastable failures, which the overload experiment reproduces
// before showing the escape.
//
// Each retry re-runs the whole attempt (admission gate included) and
// re-arms the per-attempt operation timeout; the invocation fails with the
// last error once Max retries are spent.
type RetryPolicy struct {
	// Max is the retry budget per invocation (0 disables retries).
	Max int
	// Base is the first backoff delay; retry n waits Base·2^(n-1), capped
	// at Cap. Base 0 retries immediately.
	Base time.Duration
	// Cap bounds the exponential backoff (0 = uncapped).
	Cap time.Duration
	// Jitter in [0,1] subtracts up to that fraction of each delay,
	// de-synchronizing retry waves. Drawn from a PCG seeded with Seed, so
	// virtual-clock runs replay byte-identically.
	Jitter float64
	// Seed fixes the jitter randomness.
	Seed int64
	// OnRetry observes each re-submission (attempt is 1-based). It runs on
	// timer-callback paths: it must not block and must be safe for
	// concurrent use. Experiments hook meter accounting here.
	OnRetry func(attempt int, delay time.Duration, err error)
}

// WithRetry attaches a retry policy to every invocation through this
// client.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) {
		if p.Max < 0 {
			p.Max = 0
		}
		if p.Jitter < 0 {
			p.Jitter = 0
		}
		if p.Jitter > 1 {
			p.Jitter = 1
		}
		c.retry = &retryPolicy{
			RetryPolicy: p,
			rng:         randv2.New(randv2.NewPCG(uint64(p.Seed), 0x9e3779b97f4a7c15)),
		}
	}
}

// retryPolicy is the attached policy plus its (locked) jitter source.
type retryPolicy struct {
	RetryPolicy
	mu  sync.Mutex
	rng *randv2.Rand
}

// delay computes the backoff before retry n (1-based).
func (p *retryPolicy) delay(n int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	d := p.Base
	for i := 1; i < n; i++ {
		d *= 2
		if p.Cap > 0 && d >= p.Cap {
			d = p.Cap
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	if p.Jitter > 0 {
		p.mu.Lock()
		f := p.rng.Float64()
		p.mu.Unlock()
		d -= time.Duration(p.Jitter * f * float64(d))
	}
	return d
}
