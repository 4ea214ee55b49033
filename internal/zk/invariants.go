//go:build invariants

package zk

import (
	"fmt"
	"sync"
	"time"

	"correctables/internal/faults"
	"correctables/internal/netsim"
)

// invState is what the in-line invariants of ROADMAP item 2 remember. They
// are compiled in only under the invariants build tag (go test -tags
// invariants); invariants_off.go stubs them out of the default build. A
// violation panics with the offending state.
//
//	(i)   at most one leader gathers a majority of acks in an epoch;
//	(ii)  a server's (dataEpoch, lastApplied) never moves backwards, compared
//	      lexicographically. The zxid alone may: a snapshot of a newer epoch
//	      rewinds a deposed leader's phantom prep-applies;
//	(iii) a majority holds each commit: the leader, and every follower
//	      whose accept log has the proposal's (zxid, epoch), or had it when
//	      the follower moved to a newer epoch (an ack that crossed its
//	      vote), or whose applied state is of that epoch and at or past the
//	      zxid. It holds because a follower acks only what it records
//	      (Server.accept);
//	(iv)  eventual leadership (Ω): at each heartbeat later than
//	      RecoveryTimeouts election timeouts after the last heal, one server
//	      leads, and no server's epoch or promise exceeds its epoch.
type invState struct {
	mu      sync.Mutex
	leaders map[uint64]netsim.Region    // epoch -> the leader committing in it
	applied map[netsim.Region][2]uint64 // server -> its last (dataEpoch, lastApplied)
	// carried holds, per server, every (zxid, epoch) its accept log had
	// when its applied state moved to a newer epoch (checkApplied).
	carried map[netsim.Region]map[[2]uint64]bool
}

// checkCommit is invariants (i) and (iii): leader has a majority of acks
// for zxid of epoch.
func (v *invState) checkCommit(e *Ensemble, leader *Server, zxid, epoch uint64) {
	v.mu.Lock()
	if prev, ok := v.leaders[epoch]; ok && prev != leader.Region {
		panic(fmt.Sprintf("zk invariant: %s and %s both commit in epoch %d", prev, leader.Region, epoch))
	}
	if v.leaders == nil {
		v.leaders = make(map[uint64]netsim.Region)
	}
	v.leaders[epoch] = leader.Region
	v.mu.Unlock()
	held := 1
	for _, region := range e.order {
		s := e.servers[region]
		if s == leader {
			continue
		}
		s.mu.Lock() // before v.mu, as checkApplied's callers take them
		v.mu.Lock()
		carried := v.carried[region][[2]uint64{zxid, epoch}]
		v.mu.Unlock()
		if a, ok := s.accepted[zxid]; ok && a.Epoch == epoch || carried || s.dataEpoch == epoch && s.lastApplied >= zxid {
			held++
		}
		s.mu.Unlock()
	}
	if held < len(e.order)/2+1 {
		panic(fmt.Sprintf("zk invariant: %s committed zxid %d of epoch %d held by %d of %d servers",
			leader.Region, zxid, epoch, held, len(e.order)))
	}
}

// checkApplied is invariant (ii), called with s.mu held after a write to
// s's applied state. When the state has moved to a newer epoch, it records
// what s's accept log carries out of the old one, for (iii).
func (v *invState) checkApplied(s *Server) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := [2]uint64{s.dataEpoch, s.lastApplied}
	prev, ok := v.applied[s.Region]
	if ok && (cur[0] < prev[0] || cur[0] == prev[0] && cur[1] < prev[1]) {
		panic(fmt.Sprintf("zk invariant: %s moved back from (epoch %d, zxid %d) to (epoch %d, zxid %d)",
			s.Region, prev[0], prev[1], cur[0], cur[1]))
	}
	if cur[0] > prev[0] && len(s.accepted) > 0 {
		if v.carried == nil {
			v.carried = make(map[netsim.Region]map[[2]uint64]bool)
		}
		if v.carried[s.Region] == nil {
			v.carried[s.Region] = make(map[[2]uint64]bool)
		}
		for z, a := range s.accepted {
			v.carried[s.Region][[2]uint64{z, a.Epoch}] = true
		}
	}
	if v.applied == nil {
		v.applied = make(map[netsim.Region][2]uint64)
	}
	v.applied[s.Region] = cur
}

// checkLeadership is invariant (iv), called with the elector lock held at
// each heartbeat leader sends in its epoch. The last heal is the injector's
// last transition while no fault is in force.
func (v *invState) checkLeadership(el *elector, leader *Server) {
	inj := el.e.tr.Interceptor().(*faults.Injector)
	var healed time.Duration
	if log := inj.Log(); len(log) > 0 {
		healed = log[len(log)-1].At
	}
	if inj.Faulted() || el.e.tr.Clock().Now() <= healed+RecoveryTimeouts*el.e.cfg.ElectionTimeout {
		return
	}
	epoch := leader.election.epoch
	for _, r := range el.e.order {
		st := &el.e.servers[r].election
		if st.epoch > epoch || st.promised > epoch || st.role == roleLeader && r != leader.Region {
			panic(fmt.Sprintf("zk invariant: %s leads epoch %d past the recovery bound, but %s is %s at epoch %d with promise %d",
				leader.Region, epoch, r, st.role, st.epoch, st.promised))
		}
	}
}
