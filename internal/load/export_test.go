package load

import "time"

// Helpers only the package's own tests call.

// Tokens returns the balance after refilling at now.
func (b *TokenBucket) Tokens(now time.Duration) float64 {
	b.refill(now)
	return b.tokens
}
