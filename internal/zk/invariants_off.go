//go:build !invariants

package zk

// invState is empty in the default build: the in-line invariants live in
// invariants.go, under the invariants build tag.
type invState struct{}

func (*invState) checkCommit(*Ensemble, *Server, uint64, uint64) {}
func (*invState) checkApplied(*Server)                           {}
func (*invState) checkLeadership(*elector, *Server)              {}
