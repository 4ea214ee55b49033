// Package twissandra implements the paper's microblogging case study
// (§6.3.1, Fig 11): a Twissandra-like service whose central operation,
// get_timeline, proceeds in two steps — (1) fetch the timeline (tweet IDs),
// (2) fetch each tweet by ID. With ICG, step (1) uses invoke and step (2)
// runs speculatively on the preliminary timeline view, prefetching tweets
// while the strongly consistent timeline is still in flight.
//
// The paper used a 65k-tweet corpus spread over 22k user timelines; Load
// generates a deterministic synthetic corpus with the same shape.
package twissandra

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// Corpus shape from the paper.
const (
	DefaultTweets    = 65_000
	DefaultTimelines = 22_000
	// TimelinePage is how many recent tweets a timeline holds/serves.
	TimelinePage = 10
)

// TimelineKey / TweetKey are the storage schema.
func TimelineKey(user int) string { return fmt.Sprintf("timeline:%06d", user) }
func TweetKey(id int) string      { return fmt.Sprintf("tweet:%08d", id) }

func encodeIDs(ids []int) []byte {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return []byte(strings.Join(parts, ","))
}

func decodeIDs(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	parts := strings.Split(string(b), ",")
	ids := make([]int, 0, len(parts))
	for _, p := range parts {
		var id int
		if _, err := fmt.Sscanf(p, "%d", &id); err == nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// LoadOptions sizes the synthetic corpus.
type LoadOptions struct {
	Tweets, Timelines int
	Seed              int64
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Tweets == 0 {
		o.Tweets = DefaultTweets
	}
	if o.Timelines == 0 {
		o.Timelines = DefaultTimelines
	}
	return o
}

// Load preloads the corpus: every tweet body, and per-user timelines
// referencing up to TimelinePage random tweets.
func Load(cluster *cassandra.Cluster, opts LoadOptions) LoadOptions {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed + 5))
	for i := 0; i < opts.Tweets; i++ {
		body := fmt.Sprintf("tweet %08d: the quick brown fox jumps over the lazy dog #%d", i, i%97)
		cluster.Preload(TweetKey(i), []byte(body))
	}
	for u := 0; u < opts.Timelines; u++ {
		n := 1 + rng.Intn(TimelinePage)
		ids := make([]int, n)
		for j := range ids {
			ids[j] = rng.Intn(opts.Tweets)
		}
		cluster.Preload(TimelineKey(u), encodeIDs(ids))
	}
	return opts
}

// Tweet is one rendered tweet.
type Tweet struct {
	ID   int
	Body string
}

// TimelineOutcome reports the timing of one GetTimeline call.
type TimelineOutcome struct {
	Tweets        []Tweet
	PrelimAt      time.Duration
	Latency       time.Duration
	Speculative   bool
	Misspeculated bool
}

// Service is the microblogging service over a cassandra binding. Each user
// acts through a session (UserSession): their operations are
// read-your-writes and monotonic-reads consistent per key, so a user who
// just posted always sees the post in their own timeline read — at any
// consistency level — while other users keep the cheap eventually
// consistent views.
type Service struct {
	kv    *cassandra.KV
	clock netsim.Clock

	mu       sync.Mutex
	sessions map[int]*binding.Session
}

// NewService builds a service over a cassandra binding; opts configure the
// underlying client (observers, op timeout, label).
func NewService(b *cassandra.Binding, opts ...binding.Option) *Service {
	return &Service{
		kv:       cassandra.NewKV(b, opts...),
		clock:    b.Client().Cluster().Transport().Clock(),
		sessions: map[int]*binding.Session{},
	}
}

// UserSession returns the per-user session, opening it on first use.
func (s *Service) UserSession(user int) *binding.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[user]
	if !ok {
		sess = s.kv.Session()
		s.sessions[user] = sess
	}
	return sess
}

// fetchTweets loads tweet bodies by ID in parallel with strong reads
// (step (2); the speculation function).
func (s *Service) fetchTweets(encoded []byte) ([]Tweet, error) {
	ids := decodeIDs(encoded)
	if len(ids) == 0 {
		return nil, nil
	}
	type fetched struct {
		i     int
		tweet Tweet
		err   error
	}
	q := s.clock.NewQueue()
	for i, id := range ids {
		i, id := i, id
		s.clock.Go(func() {
			v, err := s.kv.GetStrong(context.Background(), TweetKey(id)).Final(context.Background())
			if err != nil {
				q.Put(fetched{i: i, err: err})
				return
			}
			q.Put(fetched{i: i, tweet: Tweet{ID: id, Body: string(v.Value)}})
		})
	}
	tweets := make([]Tweet, len(ids))
	var firstErr error
	for range ids {
		f := q.Get().(fetched)
		if f.err != nil && firstErr == nil {
			firstErr = f.err
			continue
		}
		tweets[f.i] = f.tweet
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return tweets, nil
}

// GetTimeline renders a user's timeline. With speculative=true it uses
// invoke on the timeline key and prefetches tweets on the preliminary view;
// otherwise it is the strong-read baseline.
func (s *Service) GetTimeline(ctx context.Context, user int, speculative bool) (TimelineOutcome, error) {
	start := s.clock.Now()
	var out TimelineOutcome
	out.Speculative = speculative
	key := TimelineKey(user)

	sess := s.UserSession(user)
	if !speculative {
		v, err := binding.SessionInvokeStrong[[]byte](ctx, sess, binding.Get{Key: key}).Final(ctx)
		if err != nil {
			return out, err
		}
		tweets, err := s.fetchTweets(v.Value)
		if err != nil {
			return out, err
		}
		out.Tweets = tweets
		out.Latency = s.clock.Now() - start
		return out, nil
	}

	// The timeline read goes through the user's session: a preliminary
	// view older than anything this user already saw (or posted) is
	// suppressed rather than speculated on.
	tlCor := sess.Get(ctx, key)
	tweetsCor := core.Speculate(tlCor, func(v core.View[[]byte]) ([]Tweet, error) {
		return s.fetchTweets(v.Value)
	}, nil)
	v, err := tweetsCor.Final(ctx)
	if err != nil {
		return out, err
	}
	out.Tweets = v.Value
	out.Latency = s.clock.Now() - start
	timing := core.TimingOf(tlCor, start)
	out.PrelimAt, out.Misspeculated = timing.Prelim, timing.Diverged
	return out, nil
}

// PostTweet writes a tweet body and prepends its ID to the author's
// timeline (read-modify-write), trimming to TimelinePage. Returns the
// model-time latency.
//
// The read-modify-write runs through the author's session: the cheap weak
// read of the timeline is still a single-replica read, but read-your-writes
// makes it safe — without it, a stale replica could serve a timeline
// missing the author's previous post, and the rewrite would silently drop
// it.
func (s *Service) PostTweet(ctx context.Context, user int, body string, rng *rand.Rand) (time.Duration, error) {
	sw := s.clock.StartStopwatch()
	sess := s.UserSession(user)
	id := int(rng.Int31())
	if _, err := binding.SessionInvokeStrong[binding.Ack](ctx, sess, binding.Put{Key: TweetKey(id), Value: []byte(body)}).Final(ctx); err != nil {
		return 0, err
	}
	key := TimelineKey(user)
	v, err := sess.GetWeak(ctx, key).Final(ctx)
	if err != nil {
		return 0, err
	}
	ids := append([]int{id}, decodeIDs(v.Value)...)
	if len(ids) > TimelinePage {
		ids = ids[:TimelinePage]
	}
	if _, err := sess.Put(ctx, key, encodeIDs(ids)).Final(ctx); err != nil {
		return 0, err
	}
	return sw.ElapsedModel(), nil
}
