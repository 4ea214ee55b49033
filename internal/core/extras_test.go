package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestFinallyRunsOnceEitherWay(t *testing.T) {
	for _, fail := range []bool{false, true} {
		c, ctrl := New[any]()
		var n int32
		c.Finally(func() { atomic.AddInt32(&n, 1) })
		_ = ctrl.Update(1, LevelWeak)
		if fail {
			_ = ctrl.Fail(errors.New("x"))
		} else {
			_ = ctrl.Close(2, LevelStrong)
		}
		if got := atomic.LoadInt32(&n); got != 1 {
			t.Errorf("fail=%v: Finally ran %d times", fail, got)
		}
	}
}

func TestRaceTakesFirstView(t *testing.T) {
	c1, ctrl1 := New[any]()
	c2, ctrl2 := New[any]()
	out := Race(c1, c2)
	_ = ctrl2.Update("fast-prelim", LevelCache)
	v, err := out.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != "fast-prelim" {
		t.Errorf("winner = %v", v.Value)
	}
	_ = ctrl1.Close("slow", LevelStrong) // ignored
}

func TestRaceAllFail(t *testing.T) {
	c1, ctrl1 := New[any]()
	c2, ctrl2 := New[any]()
	out := Race(c1, c2)
	_ = ctrl1.Fail(errors.New("e1"))
	_ = ctrl2.Fail(errors.New("e2"))
	if _, err := out.Final(context.Background()); err == nil {
		t.Error("expected failure when all children fail")
	}
}

func TestRaceEmpty(t *testing.T) {
	if _, err := Race[any]().Final(context.Background()); !errors.Is(err, ErrNoView) {
		t.Errorf("err = %v", err)
	}
}
