package ring

// Helpers only the package's own tests call.

// Fingerprint digests the full token placement. Two rings with the same
// fingerprint place every possible key identically; the determinism
// property test (and the capacity replay gate) compare fingerprints across
// independently constructed rings.
func (r *Ring) Fingerprint() uint64 {
	h := uint64(1469598103934665603)
	for _, vn := range r.vnodes {
		h = mix64(h ^ vn.token)
		h = mix64(h ^ uint64(vn.shard))
	}
	return h
}
