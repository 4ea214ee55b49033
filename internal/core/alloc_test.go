//go:build !race

package core

import "testing"

// TestAllocGateValuesEqual: the []byte divergence check behind every
// speculation confirm must not box its operands.
func TestAllocGateValuesEqual(t *testing.T) {
	a, b, c := []byte("refs:a1,a2,a3"), []byte("refs:a1,a2,a3"), []byte("refs:a1,a2,a4")
	if got := testing.AllocsPerRun(1000, func() {
		if !ValuesEqual(a, b) || ValuesEqual(a, c) {
			t.Fatal("ValuesEqual misjudged []byte operands")
		}
	}); got != 0 {
		t.Errorf("ValuesEqual on []byte allocates %v/op, want 0", got)
	}
}
