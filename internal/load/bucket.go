package load

import "time"

// TokenBucket is a classic token bucket over model time: capacity Burst
// tokens, refilled continuously at Rate tokens per second, one token per
// admitted operation. Refill is computed lazily from elapsed model time on
// each Take, which makes it exact across the arbitrary time jumps of a
// VirtualClock — an idle bucket observed after a 10-minute jump holds
// exactly its burst capacity, not a float artifact of tick accumulation.
//
// TokenBucket is not internally locked; the Controller serializes access
// under its own mutex, and tests drive it directly.
type TokenBucket struct {
	rate   float64 // tokens per second of model time
	burst  float64 // capacity
	tokens float64
	last   time.Duration // model instant of the last refill
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Take refills for the model time elapsed since the last call and then
// takes one token if available, reporting success.
func (b *TokenBucket) Take(now time.Duration) bool {
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

func (b *TokenBucket) refill(now time.Duration) {
	if now > b.last {
		b.tokens += b.rate * (now - b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// Rate returns the current refill rate (tokens/second).
func (b *TokenBucket) Rate() float64 { return b.rate }

// SetRate changes the refill rate, settling the refill at now first so the
// old rate applies exactly up to the change instant (AIMD adjusts rates
// mid-run).
func (b *TokenBucket) SetRate(rate float64, now time.Duration) {
	b.refill(now)
	b.rate = rate
}
