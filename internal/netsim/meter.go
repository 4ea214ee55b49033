package netsim

import "sync/atomic"

// Link classes used by the stores in this repository. The paper's bandwidth
// figures (Fig 8, Fig 10) measure the client-replica link specifically, so
// the meter aggregates by class rather than by region pair. These two are
// the only classes: the meter panics on any other.
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
// the per-message hot path of every simulated send. The two adds are not
// atomic together; mid-run snapshots may be off by one in-flight message,
// which no consumer observes (experiments snapshot at quiescence).
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

// classCounters is everything the meter counts for one link class.
type classCounters struct {
	delivered, dropped      linkCounters
	rejected, shed, retried atomic.Int64
}

// Meter accumulates wire traffic by link class. Delivered and dropped
// traffic are kept in separate counters: messages a fault schedule drops or
// severs (see Transport and the faults package) never pollute the delivered
// totals, so bandwidth figures stay trustworthy under fault injection.
// It is safe for concurrent use.
type Meter struct {
	client, replica classCounters
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// of returns the counters of one link class; it panics on a class other
// than LinkClient and LinkReplica.
func (m *Meter) of(class string) *classCounters {
	switch class {
	case LinkClient:
		return &m.client
	case LinkReplica:
		return &m.replica
	}
	panic("netsim: unknown link class " + class)
}

// Account records one message of the given size on the given link class.
func (m *Meter) Account(class string, bytes int) {
	if m != nil {
		m.of(class).delivered.add(bytes)
	}
}

// AccountDropped records one message lost to fault injection (dropped by a
// lossy link, or severed by a partition/crash) on the given link class. The
// bytes never count toward the delivered statistics.
func (m *Meter) AccountDropped(class string, bytes int) {
	if m != nil {
		m.of(class).dropped.add(bytes)
	}
}

// AccountRejected records one operation attempt refused by an admission
// gate on the given link class.
func (m *Meter) AccountRejected(class string) {
	if m != nil {
		m.of(class).rejected.Add(1)
	}
}

// AccountShed records one operation attempt an admission gate degraded to
// preliminary-only service on the given link class.
func (m *Meter) AccountShed(class string) {
	if m != nil {
		m.of(class).shed.Add(1)
	}
}

// AccountRetried records one client-side retry re-submission on the given
// link class.
func (m *Meter) AccountRetried(class string) {
	if m != nil {
		m.of(class).retried.Add(1)
	}
}

// Load returns the admission-control outcome counters for one link class.
func (m *Meter) Load(class string) LoadStats {
	if m == nil {
		return LoadStats{}
	}
	c := m.of(class)
	return LoadStats{Rejected: c.rejected.Load(), Shed: c.shed.Load(), Retried: c.retried.Load()}
}

// Snapshot returns a copy of the per-class statistics. Classes with no
// traffic are absent.
func (m *Meter) Snapshot() map[string]LinkStats {
	return snapshot(m.client.delivered.stats(), m.replica.delivered.stats())
}

// SnapshotDropped returns a copy of the per-class dropped/severed
// statistics. Classes with no dropped traffic are absent.
func (m *Meter) SnapshotDropped() map[string]LinkStats {
	return snapshot(m.client.dropped.stats(), m.replica.dropped.stats())
}

func snapshot(client, replica LinkStats) map[string]LinkStats {
	out := make(map[string]LinkStats, 2)
	if client.Messages > 0 {
		out[LinkClient] = client
	}
	if replica.Messages > 0 {
		out[LinkReplica] = replica
	}
	return out
}

// Class returns the statistics for one link class.
func (m *Meter) Class(class string) LinkStats { return m.of(class).delivered.stats() }

// Dropped returns the dropped/severed statistics for one link class.
func (m *Meter) Dropped(class string) LinkStats { return m.of(class).dropped.stats() }
