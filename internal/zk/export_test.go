package zk

// Helpers only the package's own tests call.

// Role returns the server's own election role. A deposed leader reads
// "leader" until it hears its successor (see Ensemble.Leader); without
// faults the initial leader leads and every other server follows.
func (s *Server) Role() string {
	s.ensemble.elect.mu.Lock()
	defer s.ensemble.elect.mu.Unlock()
	return s.election.role.String()
}

// NodeCount returns the total number of znodes (including the root).
func (t *Tree) NodeCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// heardOf returns the leader s has heard of, and its epoch.
func (s *Server) heardOf() (*Server, uint64) {
	s.ensemble.elect.mu.Lock()
	defer s.ensemble.elect.mu.Unlock()
	return s.election.heard, s.election.heardEp
}
