package netsim

import (
	"sync"
	"sync/atomic"
)

// Link classes used by the stores in this repository. The paper's bandwidth
// figures (Fig 8, Fig 10) measure the client-replica link specifically, so
// the meter aggregates by class rather than by region pair.
const (
	LinkClient  = "client"  // client <-> contact/coordinator replica
	LinkReplica = "replica" // inter-replica traffic
)

// LinkStats is a snapshot of traffic on one link class.
type LinkStats struct {
	Bytes    int64
	Messages int64
}

// linkCounters accumulates one class's traffic with atomics: Account is on
// the per-message hot path of every simulated send, so the two standard
// classes bypass the mutex+map entirely. The two adds are not atomic
// together; mid-run snapshots may be off by one in-flight message, which
// no consumer observes (experiments snapshot at quiescence).
type linkCounters struct {
	bytes    atomic.Int64
	messages atomic.Int64
}

func (c *linkCounters) add(bytes int) {
	c.bytes.Add(int64(bytes))
	c.messages.Add(1)
}

func (c *linkCounters) stats() LinkStats {
	return LinkStats{Bytes: c.bytes.Load(), Messages: c.messages.Load()}
}

// LoadStats counts admission-control outcomes on one link class: attempts
// an admission gate refused outright (Rejected), attempts it degraded to
// preliminary-only service (Shed), and client-side retry re-submissions
// (Retried). They sit alongside the dropped counters for the same reason
// those exist: overload casualties must not pollute the delivered totals,
// and experiments need the reject/shed/retry rates per phase.
type LoadStats struct {
	Rejected int64
	Shed     int64
	Retried  int64
}

// Meter accumulates wire traffic by link class. Delivered and dropped
// traffic are kept in separate counters: messages a fault schedule drops or
// severs (see Transport and the faults package) never pollute the delivered
// totals, so bandwidth figures stay trustworthy under fault injection.
// It is safe for concurrent use.
type Meter struct {
	client  linkCounters
	replica linkCounters

	droppedClient  linkCounters
	droppedReplica linkCounters

	mu           sync.Mutex
	other        map[string]LinkStats // custom classes, off the hot path
	otherDropped map[string]LinkStats

	// Admission outcomes happen at operation granularity, not per message,
	// so a mutex-protected map (like the custom classes above) is cheap
	// enough even under a storm of rejections.
	loadMu sync.Mutex
	load   map[string]LoadStats
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{
		other:        make(map[string]LinkStats),
		otherDropped: make(map[string]LinkStats),
		load:         make(map[string]LoadStats),
	}
}

// Account records one message of the given size on the given link class.
func (m *Meter) Account(class string, bytes int) {
	if m == nil {
		return
	}
	switch class {
	case LinkClient:
		m.client.add(bytes)
	case LinkReplica:
		m.replica.add(bytes)
	default:
		m.mu.Lock()
		s := m.other[class]
		s.Bytes += int64(bytes)
		s.Messages++
		m.other[class] = s
		m.mu.Unlock()
	}
}

// AccountDropped records one message lost to fault injection (dropped by a
// lossy link, or severed by a partition/crash) on the given link class. The
// bytes never count toward the delivered statistics.
func (m *Meter) AccountDropped(class string, bytes int) {
	if m == nil {
		return
	}
	switch class {
	case LinkClient:
		m.droppedClient.add(bytes)
	case LinkReplica:
		m.droppedReplica.add(bytes)
	default:
		m.mu.Lock()
		s := m.otherDropped[class]
		s.Bytes += int64(bytes)
		s.Messages++
		m.otherDropped[class] = s
		m.mu.Unlock()
	}
}

// AccountRejected records one operation attempt refused by an admission
// gate on the given link class.
func (m *Meter) AccountRejected(class string) { m.accountLoad(class, 1, 0, 0) }

// AccountShed records one operation attempt an admission gate degraded to
// preliminary-only service on the given link class.
func (m *Meter) AccountShed(class string) { m.accountLoad(class, 0, 1, 0) }

// AccountRetried records one client-side retry re-submission on the given
// link class.
func (m *Meter) AccountRetried(class string) { m.accountLoad(class, 0, 0, 1) }

func (m *Meter) accountLoad(class string, rejected, shed, retried int64) {
	if m == nil {
		return
	}
	m.loadMu.Lock()
	s := m.load[class]
	s.Rejected += rejected
	s.Shed += shed
	s.Retried += retried
	m.load[class] = s
	m.loadMu.Unlock()
}

// Load returns the admission-control outcome counters for one link class.
func (m *Meter) Load(class string) LoadStats {
	if m == nil {
		return LoadStats{}
	}
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	return m.load[class]
}

// SnapshotLoad returns a copy of the per-class admission-control outcome
// counters. Classes with no outcomes are absent.
func (m *Meter) SnapshotLoad() map[string]LoadStats {
	if m == nil {
		return nil
	}
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	out := make(map[string]LoadStats, len(m.load))
	for k, v := range m.load {
		out[k] = v
	}
	return out
}

// Snapshot returns a copy of the per-class statistics. Classes with no
// traffic are absent.
func (m *Meter) Snapshot() map[string]LinkStats {
	m.mu.Lock()
	out := make(map[string]LinkStats, len(m.other)+2)
	for k, v := range m.other {
		out[k] = v
	}
	m.mu.Unlock()
	if s := m.client.stats(); s.Messages > 0 {
		out[LinkClient] = s
	}
	if s := m.replica.stats(); s.Messages > 0 {
		out[LinkReplica] = s
	}
	return out
}

// SnapshotDropped returns a copy of the per-class dropped/severed
// statistics. Classes with no dropped traffic are absent.
func (m *Meter) SnapshotDropped() map[string]LinkStats {
	m.mu.Lock()
	out := make(map[string]LinkStats, len(m.otherDropped)+2)
	for k, v := range m.otherDropped {
		out[k] = v
	}
	m.mu.Unlock()
	if s := m.droppedClient.stats(); s.Messages > 0 {
		out[LinkClient] = s
	}
	if s := m.droppedReplica.stats(); s.Messages > 0 {
		out[LinkReplica] = s
	}
	return out
}

// Class returns the statistics for one link class.
func (m *Meter) Class(class string) LinkStats {
	switch class {
	case LinkClient:
		return m.client.stats()
	case LinkReplica:
		return m.replica.stats()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.other[class]
}

// Dropped returns the dropped/severed statistics for one link class.
func (m *Meter) Dropped(class string) LinkStats {
	switch class {
	case LinkClient:
		return m.droppedClient.stats()
	case LinkReplica:
		return m.droppedReplica.stats()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.otherDropped[class]
}

// Reset zeroes all statistics.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.other = make(map[string]LinkStats)
	m.otherDropped = make(map[string]LinkStats)
	m.mu.Unlock()
	m.loadMu.Lock()
	m.load = make(map[string]LoadStats)
	m.loadMu.Unlock()
	for _, c := range []*linkCounters{&m.client, &m.replica, &m.droppedClient, &m.droppedReplica} {
		c.bytes.Store(0)
		c.messages.Store(0)
	}
}
