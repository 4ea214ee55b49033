//go:build !invariants

package zk

import "correctables/internal/netsim"

// invState is empty in the default build: the in-line invariants live in
// invariants.go, under the invariants build tag.
type invState struct{}

func (*invState) checkCommit(netsim.Region, uint64) {}
func (*invState) checkApplied(*Server)              {}
