package core

import (
	"context"
	"testing"
)

// TestTypedViewsNoBoxing: a Correctable[[]byte] stores and returns slices
// directly; the first two views live in the inline buffer and survive a
// growth past it.
func TestTypedViewsInlineAndGrowth(t *testing.T) {
	c, ctrl := newOnHost[[]byte]()
	_ = ctrl.Update([]byte("a"), LevelCache)
	_ = ctrl.Update([]byte("b"), LevelWeak)
	_ = ctrl.Update([]byte("c"), LevelCausal)
	_ = ctrl.Close([]byte("d"), LevelStrong)
	views := c.Views()
	if len(views) != 4 {
		t.Fatalf("views = %d, want 4", len(views))
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if string(views[i].Value) != want || views[i].Index != i {
			t.Errorf("view %d = %+v, want %q", i, views[i], want)
		}
	}
}

// identityEq judges equality on ID only, via the typed Equaler[T].
type identityEq struct {
	ID   string
	Hits int
}

func (e identityEq) EqualValue(o identityEq) bool { return e.ID == o.ID }

// TestTypedSpeculateUsesEqualer: confirmation detection consults the typed
// Equaler, so a final view differing only in ignored fields confirms the
// preliminary speculation instead of re-executing.
func TestTypedSpeculateUsesEqualer(t *testing.T) {
	c, ctrl := newOnHost[identityEq]()
	runs := 0
	out := Speculate(c, func(v View[identityEq]) (int, error) {
		runs++
		return v.Value.Hits, nil
	}, nil)
	_ = ctrl.Update(identityEq{ID: "x", Hits: 1}, LevelWeak)
	_ = ctrl.Close(identityEq{ID: "x", Hits: 99}, LevelStrong)
	v, err := out.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("spec ran %d times, want 1 (Equaler-confirmed)", runs)
	}
	if v.Value != 1 {
		t.Errorf("result = %d, want the speculated 1", v.Value)
	}
}

// TestTypedValuesEqualDispatch: the three ValuesEqual strategies.
func TestTypedValuesEqualDispatch(t *testing.T) {
	if !ValuesEqual(identityEq{ID: "a", Hits: 1}, identityEq{ID: "a", Hits: 2}) {
		t.Error("Equaler[T] path broken")
	}
	if !ValuesEqual([]byte("z"), []byte("z")) || ValuesEqual([]byte("z"), []byte("y")) {
		t.Error("[]byte fast path broken")
	}
	type pair struct{ A, B int }
	if !ValuesEqual(pair{1, 2}, pair{1, 2}) || ValuesEqual(pair{1, 2}, pair{2, 1}) {
		t.Error("reflect fallback broken")
	}
}
