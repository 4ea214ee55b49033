// Package newsreader implements the paper's smartphone news reader (§4.4,
// Listing 6): a news service replicated with a primary-backup scheme plus a
// local phone cache. One logical invoke fetches the latest news and the
// display refreshes with every incremental view — cache almost immediately,
// the closest backup a bit later, the distant primary last.
package newsreader

import (
	"context"
	"strings"
	"time"

	"correctables/internal/causal"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// FeedKey is the single replicated object holding the headline list.
const FeedKey = "news:latest"

func encodeItems(items []string) []byte { return []byte(strings.Join(items, "\n")) }

func decodeItems(b []byte) []string {
	if len(b) == 0 {
		return nil
	}
	return strings.Split(string(b), "\n")
}

// Update is one display refresh: the headlines visible at some consistency
// level, with its model-time latency.
type Update struct {
	Items []string
	Level core.Level
	At    time.Duration
	Final bool
}

// Reader is the news reader app over a cache+causal binding.
type Reader struct {
	kv    *causal.KV
	clock netsim.Clock
}

// NewReader builds a reader over a causal-store binding.
func NewReader(b *causal.Binding) *Reader {
	return &Reader{
		kv:    causal.NewKV(b),
		clock: b.Client().Store().Config().Transport.Clock(),
	}
}

// GetLatestNews is Listing 6: one logical access, refreshDisplay on every
// update. It returns after the final view has been displayed, reporting all
// refreshes in order.
func (r *Reader) GetLatestNews(ctx context.Context, refreshDisplay func(Update)) ([]Update, error) {
	sw := r.clock.StartStopwatch()
	var updates []Update
	cor := r.kv.Get(ctx, FeedKey)
	cor.OnUpdate(func(v core.View[[]byte]) {
		u := Update{
			Items: decodeItems(v.Value),
			Level: v.Level,
			At:    sw.ElapsedModel(),
			Final: v.Final,
		}
		updates = append(updates, u)
		if refreshDisplay != nil {
			refreshDisplay(u)
		}
	})
	if _, err := cor.Final(ctx); err != nil {
		return nil, err
	}
	return updates, nil
}

// Publish prepends a headline to the feed (newsroom side; goes through the
// primary with write-through coherence).
func (r *Reader) Publish(ctx context.Context, headline string, keep int) error {
	v, err := r.kv.GetStrong(ctx, FeedKey).Final(ctx)
	if err != nil {
		return err
	}
	items := append([]string{headline}, decodeItems(v.Value)...)
	if keep > 0 && len(items) > keep {
		items = items[:keep]
	}
	_, err = r.kv.Put(ctx, FeedKey, encodeItems(items)).Final(ctx)
	return err
}
