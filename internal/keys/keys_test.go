package keys

import (
	"fmt"
	"math"
	"testing"
)

// TestPaddedMatchesSprintf pins Padded to the fmt form it replaced, byte for
// byte: every key in every golden, history and wire size depends on it.
func TestPaddedMatchesSprintf(t *testing.T) {
	longPrefix := "/queues/" + string(make([]byte, 100)) + "/q-"
	for _, prefix := range []string{"", "user", "profile:", "a", "q-", "/queues/ev/q-", longPrefix} {
		for _, width := range []int{0, 1, 6, 7, 8, 10} {
			for _, n := range []int64{0, 1, 9, 10, 42, 999_999, 1_000_000, 12_345_678, 99_999_999, 100_000_000,
				9_999_999_999, 10_000_000_000, math.MaxInt64, -1, -42, -12_345_678, math.MinInt64} {
				want := fmt.Sprintf("%s%0*d", prefix, width, n)
				if got := Padded(prefix, n, width); got != want {
					t.Errorf("Padded(%q, %d, %d) = %q, want %q", prefix, n, width, got, want)
				}
			}
		}
	}
}
