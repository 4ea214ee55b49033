//go:build invariants

package zk

import (
	"fmt"
	"sync"

	"correctables/internal/netsim"
)

// invState is what the in-line invariants of ROADMAP item 2 remember. They
// are compiled in only under the invariants build tag (go test -tags
// invariants); invariants_off.go stubs them out of the default build. A
// violation panics with the offending state.
//
//	(i)  at most one leader gathers a majority of acks in an epoch;
//	(ii) a server's (dataEpoch, lastApplied) never moves backwards, compared
//	     lexicographically. The zxid alone may: a snapshot of a newer epoch
//	     rewinds a deposed leader's phantom prep-applies.
//
// "A majority holds each commit" is not armed: a deposed leader's commit
// breaks it today (ROADMAP item 2(a)).
type invState struct {
	mu      sync.Mutex
	leaders map[uint64]netsim.Region    // epoch -> the leader committing in it
	applied map[netsim.Region][2]uint64 // server -> its last (dataEpoch, lastApplied)
}

// checkCommit is invariant (i): leader has a majority of acks for a
// proposal of epoch.
func (v *invState) checkCommit(leader netsim.Region, epoch uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.leaders[epoch]; ok && prev != leader {
		panic(fmt.Sprintf("zk invariant: %s and %s both commit in epoch %d", prev, leader, epoch))
	}
	if v.leaders == nil {
		v.leaders = make(map[uint64]netsim.Region)
	}
	v.leaders[epoch] = leader
}

// checkApplied is invariant (ii), called with s.mu held after a write to
// s's applied state.
func (v *invState) checkApplied(s *Server) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := [2]uint64{s.dataEpoch, s.lastApplied}
	if prev, ok := v.applied[s.Region]; ok && (cur[0] < prev[0] || cur[0] == prev[0] && cur[1] < prev[1]) {
		panic(fmt.Sprintf("zk invariant: %s moved back from (epoch %d, zxid %d) to (epoch %d, zxid %d)",
			s.Region, prev[0], prev[1], cur[0], cur[1]))
	}
	if v.applied == nil {
		v.applied = make(map[netsim.Region][2]uint64)
	}
	v.applied[s.Region] = cur
}
