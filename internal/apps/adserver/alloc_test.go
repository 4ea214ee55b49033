//go:build !race

package adserver

import (
	"context"
	"testing"
)

// TestAllocGateFetchAds pins what one speculative FetchAdsByUserID of a
// five-ad profile costs end to end on a warm clock: 37 objects (46 while
// every read view boxed its value and a Correctable's subscriber was an
// entry in a slice, 51 while the fetch captured its preliminary with an
// OnUpdate registration, 52 while the preliminary's flush was a closure
// per read, 84 before stored values went out shared, the reads ran on
// recycled records and the keys were cut from one string). 18 are the read
// path's, as TestAllocGateQuorumRead counts them: 3 for the ICG read of the
// reference list and 3 for each of the five strong reads of the ads. The
// fetch adds what it returns or spawns — the profile key, the one string
// all five ad keys are cut from, the ad slice, the result queue, a closure
// per parallel fetch: 9 — and the speculation its own 10: the speculation
// function's closure, the speculative Correctable, its level set, the
// speculator and its two bound callbacks (their entry is inline in the
// reference list's Correctable), the speculation record and its actor's
// closure, the Final registration, and the copy of the reference list's
// views core.TimingOf reads.
func TestAllocGateFetchAds(t *testing.T) {
	s, cluster := newService(t, true)
	const uid = 1000 // beyond the loaded profiles
	cluster.Preload(ProfileKey(uid), encodeRefs([]string{
		adRefName(1), adRefName(2), adRefName(3), adRefName(4), adRefName(5)}))
	ctx := context.Background()
	fetch := func() {
		out, err := s.FetchAdsByUserID(ctx, uid, true)
		if err != nil || len(out.Ads) != 5 || out.Misspeculated {
			t.Fatalf("fetch = %d ads, misspeculated %v, err %v", len(out.Ads), out.Misspeculated, err)
		}
	}
	for i := 0; i < 32; i++ {
		fetch()
	}
	const budget = 37
	got := testing.AllocsPerRun(300, fetch)
	t.Logf("allocs/speculative fetch of 5 ads: %.1f", got)
	if got > budget {
		t.Errorf("speculative fetch allocates %.1f/op, budget %d", got, budget)
	}
	s.clock.Drain()
}
