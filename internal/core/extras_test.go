package core

import (
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
