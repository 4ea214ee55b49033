// Package adserver implements the paper's advertising case study (§4.2,
// Listing 4; evaluated in §6.3.1 / Fig 11): serving personalized ads
// requires first reading a per-user list of ad references, then fetching
// the referenced ads. Freshness matters (ads follow fluctuating user
// interests) but so does latency (ads are revenue), putting the system in
// the paper's "gray zone".
//
// With ICG, FetchAdsByUserID reads the reference list with invoke() and
// speculatively prefetches ad content on the preliminary view; if the final
// view confirms it (the common case), the strong-consistency latency is
// hidden behind the prefetch.
package adserver

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"time"

	"correctables/internal/cassandra"
	"correctables/internal/core"
	"correctables/internal/keys"
	"correctables/internal/netsim"
)

// Dataset shape from the paper: 100k user profiles, 230k ads, each profile
// referencing 1..40 ads.
const (
	DefaultProfiles   = 100_000
	DefaultAds        = 230_000
	DefaultMaxRefs    = 40
	DefaultAdBodySize = 600
)

// The storage schema: a profile "profile:<uid>" holds a comma-separated
// list of ad references, and the ad a reference names lives at "ad:<ref>".
const adKeyPrefix = "ad:"

func ProfileKey(uid int) string { return keys.Padded("profile:", int64(uid), 7) }
func AdKey(ref string) string   { return adKeyPrefix + ref }
func adRefName(i int) string    { return keys.Padded("a", int64(i), 6) }
func encodeRefs(rs []string) []byte {
	return []byte(strings.Join(rs, ","))
}

// adKeys renders the first max references of an encoded list as their
// storage keys, comma-separated like the list itself, and counts them. All
// the keys (and through them the references) are substrings of the one
// string returned, which is the only allocation: splitting the list and
// prefixing each reference separately cost one per reference and two more.
func adKeys(refsEncoded []byte, max int) (joined string, n int) {
	var buf [128]byte // five keys of the shipped schema fit; more spills
	b := buf[:0]
	for more := len(refsEncoded) > 0; more && n < max; n++ {
		ref := refsEncoded
		i := bytes.IndexByte(refsEncoded, ',')
		if more = i >= 0; more {
			ref, refsEncoded = refsEncoded[:i], refsEncoded[i+1:]
		}
		if n > 0 {
			b = append(b, ',')
		}
		b = append(append(b, adKeyPrefix...), ref...)
	}
	return string(b), n
}

// LoadOptions sizes the synthetic dataset.
type LoadOptions struct {
	Profiles, Ads, MaxRefs, AdBodySize int
	Seed                               int64
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Profiles == 0 {
		o.Profiles = DefaultProfiles
	}
	if o.Ads == 0 {
		o.Ads = DefaultAds
	}
	if o.MaxRefs == 0 {
		o.MaxRefs = DefaultMaxRefs
	}
	if o.AdBodySize == 0 {
		o.AdBodySize = DefaultAdBodySize
	}
	return o
}

// Load preloads a synthetic ad dataset into the cluster (no protocol
// traffic): ads with deterministic bodies, profiles referencing 1..MaxRefs
// random ads, matching the paper's dataset shape.
func Load(cluster *cassandra.Cluster, opts LoadOptions) LoadOptions {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed + 3))
	body := make([]byte, opts.AdBodySize)
	for i := range body {
		body[i] = byte('A' + i%26)
	}
	for i := 0; i < opts.Ads; i++ {
		cluster.Preload(AdKey(adRefName(i)), body)
	}
	for u := 0; u < opts.Profiles; u++ {
		n := 1 + rng.Intn(opts.MaxRefs)
		refs := make([]string, n)
		for j := range refs {
			refs[j] = adRefName(rng.Intn(opts.Ads))
		}
		cluster.Preload(ProfileKey(u), encodeRefs(refs))
	}
	return opts
}

// Ad is one served advertisement.
type Ad struct {
	Ref  string
	Body []byte
}

// FetchOutcome reports the timing of one FetchAdsByUserID call.
type FetchOutcome struct {
	// Ads is the served content.
	Ads []Ad
	// PrelimAt is the model-time latency of the preliminary reference list
	// (zero without ICG).
	PrelimAt time.Duration
	// Latency is the total model-time latency until the final ads were
	// delivered.
	Latency time.Duration
	// Speculative reports whether ICG speculation was used.
	Speculative bool
	// Misspeculated reports that the preliminary reference list diverged
	// from the final one, forcing a re-fetch.
	Misspeculated bool
}

// Service serves ads from a cassandra-backed store.
type Service struct {
	kv    *cassandra.KV
	clock netsim.Clock
	// MaxAdsPerRequest caps how many referenced ads are actually fetched
	// per request (a realistic page size; keeps load experiments bounded).
	MaxAdsPerRequest int
}

// NewService builds a service over a cassandra binding.
func NewService(b *cassandra.Binding) *Service {
	return &Service{
		kv:               cassandra.NewKV(b),
		clock:            b.Client().Cluster().Transport().Clock(),
		MaxAdsPerRequest: 5,
	}
}

// getAds fetches and post-processes the ads named by an encoded reference
// list (the speculation function of Listing 4). Each ad is fetched with a
// strong read (R=2), like the paper's implementation: only the first,
// reference-list access uses ICG.
func (s *Service) getAds(refsEncoded []byte) ([]Ad, error) {
	rest, n := adKeys(refsEncoded, s.MaxAdsPerRequest)
	if n == 0 {
		return nil, nil
	}
	// Every fetch fills its own slot of ads and reports only its error, so
	// no result is boxed on its way through the queue.
	ads := make([]Ad, n)
	q := s.clock.NewQueue()
	for i := range ads {
		// key is declared here and never reassigned, so the fetch captures
		// it by value instead of moving it to the heap.
		key, tail, _ := strings.Cut(rest, ",")
		rest = tail
		s.clock.Go(func() {
			v, err := s.kv.GetStrong(context.Background(), key).Final(context.Background())
			if err == nil {
				ads[i] = Ad{Ref: key[len(adKeyPrefix):], Body: v.Value}
			}
			q.Put(err)
		})
	}
	var firstErr error
	for range ads {
		if err, _ := q.Get().(error); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return ads, nil
}

// FetchAdsByUserID implements Listing 4: read the personalized ad reference
// list with invoke, speculatively prefetch the ads on the preliminary view,
// and deliver once the final view confirms (or after re-fetching on
// misspeculation). With speculative=false it is the paper's baseline: a
// strong read of the references followed by the fetch.
func (s *Service) FetchAdsByUserID(ctx context.Context, uid int, speculative bool) (FetchOutcome, error) {
	start := s.clock.Now()
	var out FetchOutcome
	out.Speculative = speculative
	key := ProfileKey(uid)

	if !speculative {
		v, err := s.kv.GetStrong(ctx, key).Final(ctx)
		if err != nil {
			return out, err
		}
		ads, err := s.getAds(v.Value)
		if err != nil {
			return out, err
		}
		out.Ads = ads
		out.Latency = s.clock.Now() - start
		return out, nil
	}

	refsCor := s.kv.Get(ctx, key)
	adsCor := core.Speculate(refsCor, func(v core.View[[]byte]) ([]Ad, error) {
		return s.getAds(v.Value)
	}, nil)
	v, err := adsCor.Final(ctx)
	if err != nil {
		return out, err
	}
	out.Ads = v.Value
	out.Latency = s.clock.Now() - start
	timing := core.TimingOf(refsCor, start)
	out.PrelimAt, out.Misspeculated = timing.Prelim, timing.Diverged
	return out, nil
}

// UpdateProfile overwrites a user's ad references (the write half of the
// YCSB workloads in Fig 11). Returns the model-time latency.
func (s *Service) UpdateProfile(ctx context.Context, uid int, refs []string) (time.Duration, error) {
	sw := s.clock.StartStopwatch()
	_, err := s.kv.Put(ctx, ProfileKey(uid), encodeRefs(refs)).Final(ctx)
	return sw.ElapsedModel(), err
}

// RandomRefs draws a fresh reference list for an update.
func RandomRefs(rng *rand.Rand, opts LoadOptions) []string {
	opts = opts.withDefaults()
	n := 1 + rng.Intn(opts.MaxRefs)
	refs := make([]string, n)
	for i := range refs {
		refs[i] = adRefName(rng.Intn(opts.Ads))
	}
	return refs
}
