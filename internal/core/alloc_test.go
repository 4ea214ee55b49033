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

// TestAllocGateOneSubscriber: a Correctable with one subscriber that
// delivers a preliminary and a final view allocates only itself. The lone
// subscriber sits inline (Correctable.first) and the two views in the
// inline view buffer; only a second subscriber or a second blocked
// consumer would allocate the overflow.
func TestAllocGateOneSubscriber(t *testing.T) {
	var seen int
	onUpdate := func(View[[]byte]) { seen++ }
	value := []byte("payload")
	got := testing.AllocsPerRun(1000, func() {
		c, ctrl := NewScheduled[[]byte](hostScheduler{}, nil)
		c.OnUpdate(onUpdate)
		if ctrl.Update(value, LevelWeak) != nil || ctrl.Close(value, LevelStrong) != nil {
			t.Fatal("delivery refused")
		}
	})
	if seen == 0 {
		t.Fatal("the subscriber saw no view")
	}
	if got != 1 {
		t.Errorf("a subscribed two-view Correctable allocates %v/op, want 1 (itself)", got)
	}
}
