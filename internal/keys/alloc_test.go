//go:build !race

package keys

import "testing"

// TestAllocGatePadded: a key costs its string and nothing else.
func TestAllocGatePadded(t *testing.T) {
	var sink string
	if got := testing.AllocsPerRun(200, func() { sink = Padded("user", 4711, 8) }); got > 1 {
		t.Errorf("Padded allocates %.0f/op, want the string alone", got)
	}
	_ = sink
}
