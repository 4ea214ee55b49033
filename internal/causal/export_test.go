package causal

import "correctables/internal/netsim"

// Helpers only the package's own tests call.

// ReplicaEntry returns region's local entry for key.
func (s *Store) ReplicaEntry(region netsim.Region, key string) Entry {
	r := s.replicas[region]
	if r == nil {
		return Entry{}
	}
	return r.get(key)
}
