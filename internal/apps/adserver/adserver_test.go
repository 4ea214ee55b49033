package adserver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"correctables/internal/cassandra"
	"correctables/internal/netsim"
)

func newService(t *testing.T, correctable bool) (*Service, *cassandra.Cluster) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:        tr,
		Correctable:      correctable,
		ConfirmationOpt:  true,
		ReadServiceTime:  50 * time.Microsecond,
		WriteServiceTime: 50 * time.Microsecond,
		FlushServiceTime: 20 * time.Microsecond,
		Workers:          16,
	})
	if err != nil {
		t.Fatal(err)
	}
	Load(cluster, LoadOptions{Profiles: 50, Ads: 200, MaxRefs: 5, AdBodySize: 100, Seed: 1})
	b := cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{})
	return NewService(b), cluster
}

func TestFetchAdsBaseline(t *testing.T) {
	s, _ := newService(t, false)
	out, err := s.FetchAdsByUserID(context.Background(), 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Ads) == 0 {
		t.Fatal("no ads served")
	}
	for _, ad := range out.Ads {
		if len(ad.Body) != 100 {
			t.Errorf("ad %s body = %d bytes", ad.Ref, len(ad.Body))
		}
	}
	if out.Latency <= 0 || out.Speculative {
		t.Errorf("outcome = %+v", out)
	}
}

func TestFetchAdsSpeculativeFasterThanBaseline(t *testing.T) {
	// The headline result of Fig 11: speculation hides the strong read's
	// latency behind the ad prefetch.
	specSvc, _ := newService(t, true)
	baseSvc, _ := newService(t, false)
	var specTotal, baseTotal time.Duration
	const n = 8
	for i := 0; i < n; i++ {
		so, err := specSvc.FetchAdsByUserID(context.Background(), i, true)
		if err != nil {
			t.Fatal(err)
		}
		bo, err := baseSvc.FetchAdsByUserID(context.Background(), i, false)
		if err != nil {
			t.Fatal(err)
		}
		specTotal += so.Latency
		baseTotal += bo.Latency
		if so.Misspeculated {
			t.Errorf("unexpected misspeculation on a quiescent dataset (uid %d)", i)
		}
		if so.PrelimAt <= 0 {
			t.Errorf("speculative fetch has no preliminary timing (uid %d)", i)
		}
	}
	spec, base := specTotal/n, baseTotal/n
	// Baseline: 40ms (strong refs) + 40ms (strong ad fetch) = ~80ms.
	// Speculative: max(40ms strong refs, 20ms prelim + 40ms fetch) = ~60ms.
	if spec >= base {
		t.Errorf("speculation did not reduce latency: spec=%v base=%v", spec, base)
	}
	improvement := 1 - float64(spec)/float64(base)
	if improvement < 0.10 {
		t.Errorf("improvement = %.0f%%, want >= 10%% (paper: up to 40%%)", improvement*100)
	}
}

func TestFetchAdsSameContentBothModes(t *testing.T) {
	specSvc, _ := newService(t, true)
	baseSvc, _ := newService(t, false)
	so, err := specSvc.FetchAdsByUserID(context.Background(), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := baseSvc.FetchAdsByUserID(context.Background(), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(so.Ads) != len(bo.Ads) {
		t.Fatalf("ad counts differ: %d vs %d", len(so.Ads), len(bo.Ads))
	}
	for i := range so.Ads {
		if so.Ads[i].Ref != bo.Ads[i].Ref {
			t.Errorf("ad %d ref differs: %s vs %s", i, so.Ads[i].Ref, bo.Ads[i].Ref)
		}
	}
}

func TestUpdateProfileAndRefetch(t *testing.T) {
	s, _ := newService(t, true)
	rng := rand.New(rand.NewSource(9))
	refs := RandomRefs(rng, LoadOptions{Ads: 200, MaxRefs: 5})
	lat, err := s.UpdateProfile(context.Background(), 11, refs)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("update latency not measured")
	}
	out, err := s.FetchAdsByUserID(context.Background(), 11, false)
	if err != nil {
		t.Fatal(err)
	}
	want := len(refs)
	if want > s.MaxAdsPerRequest {
		want = s.MaxAdsPerRequest
	}
	if len(out.Ads) != want {
		t.Errorf("served %d ads after update, want %d", len(out.Ads), want)
	}
	if out.Ads[0].Ref != refs[0] {
		t.Errorf("first ad = %s, want %s", out.Ads[0].Ref, refs[0])
	}
}

func TestMisspeculationDetectedAndCorrected(t *testing.T) {
	// Force divergence: write through a colocated IRL coordinator with a
	// long replication delay, then immediately fetch through FRK.
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:        tr,
		Correctable:      true,
		ReadServiceTime:  50 * time.Microsecond,
		WriteServiceTime: 50 * time.Microsecond,
		ReplicationDelay: 300 * time.Millisecond,
		Workers:          16,
	})
	if err != nil {
		t.Fatal(err)
	}
	Load(cluster, LoadOptions{Profiles: 5, Ads: 50, MaxRefs: 3, AdBodySize: 50, Seed: 2})
	writer := NewService(cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.IRL), cassandra.BindingConfig{}))
	reader := NewService(cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{}))

	rng := rand.New(rand.NewSource(3))
	newRefs := RandomRefs(rng, LoadOptions{Ads: 50, MaxRefs: 3})
	if _, err := writer.UpdateProfile(context.Background(), 1, newRefs); err != nil {
		t.Fatal(err)
	}
	out, err := reader.FetchAdsByUserID(context.Background(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Misspeculated {
		t.Fatal("expected misspeculation: FRK preliminary is stale, quorum partner IRL is fresh")
	}
	// Despite misspeculating, the served ads reflect the final (fresh) refs.
	if out.Ads[0].Ref != newRefs[0] {
		t.Errorf("served %s after misspeculation, want fresh %s", out.Ads[0].Ref, newRefs[0])
	}
}

// TestKeysMatchTheFmtForms pins the fmt-free schema helpers to the forms
// they replaced, byte for byte, values wider than the padding included.
func TestKeysMatchTheFmtForms(t *testing.T) {
	for _, i := range []int{0, 7, 123_456, 999_999, 1_000_000, 9_999_999, 10_000_000, 1 << 40} {
		if want := fmt.Sprintf("profile:%07d", i); ProfileKey(i) != want {
			t.Errorf("ProfileKey(%d) = %q, want %q", i, ProfileKey(i), want)
		}
		if want := fmt.Sprintf("a%06d", i); adRefName(i) != want {
			t.Errorf("adRefName(%d) = %q, want %q", i, adRefName(i), want)
		}
	}
}

// TestAdKeysMatchSplitAndPrefix pins adKeys to what it replaced: split the
// list on commas, keep the first max references, prefix each with "ad:".
func TestAdKeysMatchSplitAndPrefix(t *testing.T) {
	long := strings.Repeat("a123456,", 40) + "a999999" // spills the stack buffer
	for _, list := range []string{"", "a000001", "a000001,a000002", "a1,,a3", "a1,a2,", ",", long} {
		for _, max := range []int{0, 1, 2, 5, 100} {
			var want []string
			if list != "" {
				want = strings.Split(list, ",")
			}
			if len(want) > max {
				want = want[:max]
			}
			for i := range want {
				want[i] = AdKey(want[i])
			}
			joined, n := adKeys([]byte(list), max)
			var got []string
			if n > 0 {
				got = strings.Split(joined, ",")
			}
			if n != len(want) || !slices.Equal(got, want) {
				t.Errorf("adKeys(%q, %d) = %q (%d keys), want %q", list, max, got, n, want)
			}
		}
	}
}
